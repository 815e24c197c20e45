"""Vanishing axioms and K-vector bookkeeping for genus-zero correlators.

A correlator candidate is a list of insertions drawn from the milnor ring
of the transposed polynomial.  All but the last two insertions must be
primitive (a single variable); the last two, written alpha and beta, are
arbitrary basis monomials.  From the insertion counts the K-vector is
derived, and with it the two cheap vanishing axioms (integer degrees and
dimension) plus the finer type classification used by the reconstruction
of four-point correlators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from . import linalg
from .errors import WrongConfiguration
from .groups import GroupElement
from .jacobi import ring_of
from .poly import InvertiblePolynomial

NOT_X_MINUS_1 = "NotXminus1"
X_MINUS_1 = "Xminus1"
X_0 = "X0"


def _is_primitive(m: tuple[int, ...]) -> bool:
    return sum(m) == 1


@dataclass(frozen=True)
class CorrelatorSpec:
    """A correlator candidate in normal form, with derived bookkeeping.

    ``insertions`` holds exponent tuples of monomials in the milnor ring
    of the transpose: first the primitive ones sorted by decreasing
    variable index (identity insertions, tolerated so that degenerate
    candidates can still be fed to the axioms, come after them), then
    alpha and beta.  ``ell[i]`` counts primitive insertions of x_{i+1};
    ``b`` solves E*b = ell + alpha + beta + 2 and ``K = ell - b + 1``
    componentwise.
    """

    insertions: tuple[tuple[int, ...], ...]
    ell: tuple[int, ...]
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    b: tuple[Fraction, ...]
    K: tuple[Fraction, ...]

    @property
    def k(self) -> int:
        return len(self.insertions)

    @staticmethod
    def build(W: InvertiblePolynomial, insertions) -> "CorrelatorSpec":
        """Validate the insertion list against ``W`` and derive ell, b, K.

        Raises WrongConfiguration unless there are at least three
        insertions, each an exponent tuple of length N with nonnegative
        entries, and all but the last two are primitive or the identity.
        """
        rows = [tuple(int(e) for e in m) for m in insertions]
        if len(rows) < 3:
            raise WrongConfiguration("need at least 3 insertions")
        for m in rows:
            if len(m) != W.N:
                raise WrongConfiguration(f"insertion {m} does not have {W.N} exponents")
            if any(e < 0 for e in m):
                raise WrongConfiguration(f"insertion {m} has a negative exponent")
        head, alpha, beta = rows[:-2], rows[-2], rows[-1]
        for m in head:
            if not (_is_primitive(m) or sum(m) == 0):
                raise WrongConfiguration(f"insertion {m} must be a single variable or 1")
        head.sort(key=lambda m: m.index(1) if _is_primitive(m) else -1, reverse=True)
        ell = tuple(sum(m[i] for m in head) for i in range(W.N))
        rhs = [Fraction(ell[i] + alpha[i] + beta[i] + 2) for i in range(W.N)]
        b = tuple(linalg.solve(W.E, rhs))
        K = tuple(Fraction(ell[i]) - b[i] + 1 for i in range(W.N))
        return CorrelatorSpec(tuple(head) + (tuple(alpha), tuple(beta)), ell, tuple(alpha), tuple(beta), b, K)


def line_bundle_degrees(W: InvertiblePolynomial, sectors: list[GroupElement]) -> list[Fraction]:
    """Degrees l_j = q_j*(k - 2) - sum_i Theta_j(gamma_i) for k >= 3 sectors."""
    k = len(sectors)
    return [W.q[j] * (k - 2) - sum(g.phases[j] for g in sectors) for j in range(W.N)]


def passes_axioms(W: InvertiblePolynomial, X: CorrelatorSpec) -> bool:
    """Both cheap vanishing axioms: dimension and integer degrees.

    Dimension asks that the milnor-ring degrees of the insertions sum to
    charge + k - 3; integer degrees is equivalent to every K_i (hence
    every line bundle degree) being an integer.
    """
    qt = W.transpose().q
    total = sum(sum(Fraction(e) * qt[i] for i, e in enumerate(m)) for m in X.insertions)
    if total != W.charge + X.k - 3:
        return False
    return all(K.denominator == 1 for K in X.K)


def classify_type(W: InvertiblePolynomial, X: CorrelatorSpec) -> str:
    """Sort a candidate into NOT_X_MINUS_1 / X_MINUS_1 / X_0.

    Type X(-1) needs at least four insertions, alpha and beta in the
    standard basis of the transposed milnor ring, every K_i an integer,
    and sum(K) = 1.  Type X0 additionally needs the K-mass concentrated
    on a single summand (K = 1 there, 0 elsewhere) that carries at least
    two primitive insertions.
    """
    if X.k < 4:
        return NOT_X_MINUS_1
    if sum(X.ell) != X.k - 2:
        return NOT_X_MINUS_1
    index = ring_of(W.transpose()).basis.index
    if X.alpha not in index or X.beta not in index:
        return NOT_X_MINUS_1
    if any(K.denominator != 1 for K in X.K):
        return NOT_X_MINUS_1
    if sum(X.K) != 1:
        return NOT_X_MINUS_1
    carriers = []
    for s in W.summands:
        k_sum = sum(X.K[i] for i in s.variables)
        if k_sum == 1:
            carriers.append(s)
        elif k_sum != 0:
            return X_MINUS_1
    if len(carriers) == 1 and sum(X.ell[i] for i in carriers[0].variables) >= 2:
        return X_0
    return X_MINUS_1


def enumerate_candidates(W: InvertiblePolynomial, k_max: int = 6):
    """Yield all CorrelatorSpec with 3 <= k <= k_max insertions drawn from
    the standard basis of the transpose, of total degree <= charge + 3.

    Intended for property tests at desk scale; the degree cap is what the
    dimension axiom allows for k <= 6.
    """
    basis = ring_of(W.transpose()).basis
    qt = W.transpose().q
    wt = {m: sum(Fraction(e) * qt[i] for i, e in enumerate(m)) for m in basis.monomials}
    bound = W.charge + 3
    primitives = []
    for i in reversed(range(W.N)):
        m = tuple(1 if j == i else 0 for j in range(W.N))
        if m in basis.index:
            primitives.append(m)
    for k in range(3, k_max + 1):
        for head in combinations_with_replacement(primitives, k - 2):
            head_wt = sum(wt[m] for m in head)
            if head_wt > bound:
                continue
            for alpha, beta in combinations_with_replacement(basis.monomials, 2):
                if head_wt + wt[alpha] + wt[beta] <= bound:
                    yield CorrelatorSpec.build(W, list(head) + [alpha, beta])
