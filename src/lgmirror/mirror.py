"""The mirror map from Jac(Wᵗ) monomials to A-model sector data.

Ψ sends a monomial ∏x_j^{α_j} of Jac(Wᵗ) into the sector

    γ = (∏_j ρ_j^{α_j})·J_W,    phases Θ^{(i)} = frac(Σ_j α_j ρ_j^{(i)} + q_i),

where ρ_j^{(i)} is entry (i,j) of E_W⁻¹.  The phases are computed in
integers over D, the exponent of G_W: since q = E⁻¹·(1,…,1)ᵗ, the vector
D·Θ is D·E⁻¹·(α + 1) reduced mod D, which `W.inverse_times` gives in one
pass along each summand.  The map is degree-preserving:
wt(m) computed with the weights of Wᵗ equals N_γ/2 + Σ_i(Θ^{(i)} − q_i).
When x_i sits in a 2-variable loop summand with exponent 2, Ψ(x_i) is the
broad class ⌈x_i; 1⌋ instead of a narrow generator; products inherit that
broad monomial exactly when their sector has a nontrivial fixed locus.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import UnsupportedByTheorem, WrongConfiguration
from .groups import GroupElement, sector_degree
from .poly import InvertiblePolynomial

Monomial = tuple[int, ...]


class AModelClass(NamedTuple):
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
    # only a chain's pure-power tail can weigh 1/2; scanned once per W
    bad = W.derive("weight_half_tails", lambda: tuple(s.variables[-1] for s in W.summands
                   if s.kind == "chain" and 2 * W.Dq[s.variables[-1]] == W.D))
    if bad:
        names = ", ".join(f"x{i+1}" for i in bad)
        raise UnsupportedByTheorem(
            f"chain variable(s) {names} have weight 1/2; "
            "the mirror theorem excludes this case")


class Target(NamedTuple):
    """x_i admitted by `admissible_target`, the one builder: x_i's atomic
    piece, from `W.piece`, and x_i's 1-based index in it."""

    piece: InvertiblePolynomial
    local: int

    @property
    def key(self):
        """The target's key in the piece's memo: a loop's exponents read in
        `target_order`, else ``local``, so the variables a symmetry of W
        exchanges share one computation."""
        piece, local = self
        s = piece.summands[0]
        return tuple(s.exponents[k] for k in piece.target_order(local)) if s.kind == "loop" else local


def admissible_target(W: InvertiblePolynomial, i: int) -> Target:
    """Validate that <x_i, x_i, M_i/x_i^2, top> falls under the theorem.

    The variable must be a power-at-least-3 one when its summand is a
    Fermat, and the final one when it is a chain; every loop variable is
    supported.  The check reads x_i's summand in W, so a refused target
    builds nothing.  This is the one gate: the admitted `Target` is what
    both correlator sides and ``--trace`` take.
    """
    require_mirror_hypotheses(W)
    if not 1 <= i <= W.N:
        raise WrongConfiguration(f"variable index {i} out of range")
    s = W.summand_of(i - 1)
    if s.kind == "fermat" and s.exponents[0] < 3:
        raise UnsupportedByTheorem("Fermat variables need exponent at least 3")
    if s.kind == "chain" and s.variables[-1] != i - 1:
        raise UnsupportedByTheorem("chain variables other than the final one are not supported")
    return Target(*W.piece(i - 1))


def sector_of(W: InvertiblePolynomial, m: Monomial) -> GroupElement:
    """(∏ρ_j^{α_j})·J_W for the monomial exponents α = m, over D = W.D."""
    return GroupElement(tuple([x % W.D for x in W.inverse_times([e + 1 for e in m])]), W.D)


def final_type_insertions(W: InvertiblePolynomial, i: int) -> tuple[Monomial, Monomial, Monomial]:
    """(x_i, M_i/x_i^2, M_i) as exponent tuples of Jac(Wᵗ), for 1-based i.

    M_i, the i-th monomial of the transpose, is read off x_i's summand: a_i
    at row r = W.head[i-1], where x_i is the variable of Wᵗ that M_i heads
    (a_i ≥ 2), and 1 at row W.head[v] for the x_v that points at x_i."""
    t, r, m = i - 1, W.head[i - 1], [0] * W.N
    for v, a, w in next(s for s in W.summands if t in s.variables).monomials():
        if t in (v, w):
            m[W.head[v]] = a if v == t else 1
    x = tuple(1 if j == r else 0 for j in range(W.N))
    s = tuple(e - 2 * xj for e, xj in zip(m, x))
    return x, s, tuple(m)


def psi(W: InvertiblePolynomial, m: Monomial) -> AModelClass:
    """Mirror image of the Jac(Wᵗ) monomial m = ∏x_j^{α_j}."""
    require_mirror_hypotheses(W)
    gamma = sector_of(W, m)
    broad = None
    if not gamma.is_narrow():
        rows = {W.head[i] for i in exception_variables(W)}
        restricted = tuple(e if r in rows else 0 for r, e in enumerate(m))
        if any(restricted):
            broad = restricted
    return AModelClass(sector=gamma, broad_monomial=broad,
                       degree=sector_degree(W, gamma))
