"""The mirror map from Jac(Wᵗ) monomials to A-model sector data.

Ψ sends a monomial ∏x_j^{α_j} of Jac(Wᵗ) into the sector

    γ = (∏_j ρ_j^{α_j})·J_W,    phases Θ^{(i)} = frac(Σ_j α_j ρ_j^{(i)} + q_i),

where ρ_j^{(i)} is entry (i,j) of E_W⁻¹.  The map is degree-preserving:
wt(m) computed with the weights of Wᵗ equals N_γ/2 + Σ_i(Θ^{(i)} − q_i).
When x_i sits in a 2-variable loop summand with exponent 2, Ψ(x_i) is the
broad class ⌈x_i; 1⌋ instead of a narrow generator; products inherit that
broad monomial exactly when their sector has a nontrivial fixed locus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedByTheorem, WrongConfiguration
from .groups import GroupElement, _frac, sector_degree
from .jacobi import ring_of
from .poly import InvertiblePolynomial

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class AModelClass:
    sector: GroupElement
    broad_monomial: Monomial | None
    degree: Fraction

    @property
    def narrow(self) -> bool:
        return self.sector.is_narrow()


def exception_variables(W: InvertiblePolynomial) -> tuple[int, ...]:
    """Variables x_i in a 2-variable loop summand with exponent a_i = 2
    (0-based ambient indices).  For these Ψ(x_i) = ⌈x_i; 1⌋."""
    out = []
    for s in W.summands:
        if s.kind == "loop" and len(s.variables) == 2:
            for v, a in zip(s.variables, s.exponents):
                if a == 2:
                    out.append(v)
    return tuple(sorted(out))


def require_mirror_hypotheses(W: InvertiblePolynomial) -> None:
    bad = W.chain_weight_half_tails()
    if bad:
        names = ", ".join(f"x{i+1}" for i in bad)
        raise UnsupportedByTheorem(
            f"chain variable(s) {names} have weight 1/2; "
            "the mirror theorem excludes this case")


def sector_of(W: InvertiblePolynomial, m: Monomial) -> GroupElement:
    """(∏ρ_j^{α_j})·J_W for the monomial exponents α = m."""
    inv = W.inverse_exponents()
    phases = []
    for i in range(W.N):
        s = W.q[i] + sum((m[j] * inv[i][j] for j in range(W.N)), Fraction(0))
        phases.append(_frac(s))
    return GroupElement(tuple(phases))


def final_type_insertions(W: InvertiblePolynomial, i: int) -> tuple[Monomial, Monomial, Monomial]:
    """(x_i, M_i/x_i^2, M_i) as exponent tuples of Jac(Wᵗ), for 1-based i.

    M_i is the i-th monomial of the transpose, i.e. column i of E."""
    t = i - 1
    m = tuple(row[t] for row in W.E)
    if m[t] < 2:
        raise WrongConfiguration(f"variable {i} appears only linearly")
    x = tuple(1 if j == t else 0 for j in range(W.N))
    s = tuple(e - 2 * xj for e, xj in zip(m, x))
    return x, s, m


def psi(W: InvertiblePolynomial, m: Monomial) -> AModelClass:
    """Mirror image of the Jac(Wᵗ) monomial m = ∏x_j^{α_j}."""
    require_mirror_hypotheses(W)
    gamma = sector_of(W, m)
    broad = None
    if not gamma.is_narrow():
        exc = exception_variables(W)
        restricted = tuple(m[i] if i in exc else 0 for i in range(W.N))
        if any(restricted):
            broad = restricted
    return AModelClass(sector=gamma, broad_monomial=broad,
                       degree=sector_degree(W, gamma))


def degree_check(W: InvertiblePolynomial) -> list[dict]:
    """Exhaustive degree-preservation check over the standard basis of
    Jac(Wᵗ); returns the (expected empty) list of violations."""
    ring = ring_of(W.transpose())
    violations = []
    for m in ring.basis.monomials:
        img = psi(W, m)
        if ring.wt(m) != img.degree:
            violations.append({"monomial": m, "wt": ring.wt(m),
                               "deg": img.degree})
    return violations
