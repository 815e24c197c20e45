"""Vanishing axioms and K-vector bookkeeping for genus-zero correlators.

A correlator candidate is a list of insertions drawn from the milnor ring
of the transposed polynomial.  All but the last two insertions must be
primitive (a single variable); the last two, written alpha and beta, are
arbitrary basis monomials.  From the insertion counts the K-vector is
derived, and with it the two cheap vanishing axioms (integer degrees and
dimension) plus the finer type classification used by the reconstruction
of four-point correlators.  b and K are kept as integers over D = W.D,
like the phases, and both axioms read D·b alone, with no transpose or ĉ.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import WrongConfiguration
from .groups import GroupElement, require_in_group
from .jacobi import ring_of
from .poly import InvertiblePolynomial

NOT_X_MINUS_1 = "NotXminus1"
X_MINUS_1 = "Xminus1"
X_0 = "X0"


def _is_primitive(m: tuple[int, ...]) -> bool:
    return sum(m) == 1


class CorrelatorSpec(NamedTuple):
    """A correlator candidate in normal form, with derived bookkeeping.

    ``insertions`` holds exponent tuples of monomials in the milnor ring
    of the transpose: first the primitive ones sorted by decreasing
    variable index (identity insertions, tolerated so that degenerate
    candidates can still be fed to the axioms, come after them), then
    alpha and beta, the last two.  ``ell[r]`` counts primitive insertions
    of x_{r+1}, the variable of the transpose from row r of E.  Over
    D = W.D, ``Db`` = D·b with E*b = ell + alpha + beta + 2, read off
    `W.inverse_times`, and ``DK`` = D·K with K[i] = ell[W.head[i]] - b[i] + 1.
    """

    insertions: tuple[tuple[int, ...], ...]
    ell: tuple[int, ...]
    Db: tuple[int, ...]
    DK: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.insertions)

    @staticmethod
    def build(W: InvertiblePolynomial, insertions) -> "CorrelatorSpec":
        """Validate the insertion list against ``W`` and derive ell, D·b, D·K.

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
        Db = W.inverse_times([ell[i] + alpha[i] + beta[i] + 2 for i in range(W.N)])
        DK = tuple((ell[r] + 1) * W.D - x for r, x in zip(W.head, Db))
        return CorrelatorSpec(tuple(head) + (alpha, beta), ell, Db, DK)


def line_bundle_degrees(W: InvertiblePolynomial, sectors: list[GroupElement]) -> list[int]:
    """The integers D·l_j, with l_j = q_j*(k - 2) - sum_i Theta_j(gamma_i)
    the degrees for k >= 3 sectors of G_W and D = W.D."""
    require_in_group(W, sectors)
    return [qj * (len(sectors) - 2) - sum(g.num[j] for g in sectors)
            for j, qj in enumerate(W.Dq)]


def passes_axioms(W: InvertiblePolynomial, X: CorrelatorSpec) -> bool:
    """Both cheap vanishing axioms, dimension and integer degrees, read off D·b.

    Dimension asks that the milnor-ring degrees of the insertions sum to
    ĉ + k - 3.  Wᵗ's weights are the column sums of E⁻¹, so m has degree
    Σᵢ(E⁻¹m)ᵢ and the insertions, summing to ell + alpha + beta, have
    degrees summing to Σb - 2Σq; as ĉ = N - 2Σq, the axiom is
    Σb = N + k - 3.  Integer degrees asks that every K_i (hence every line
    bundle degree) be an integer: K_i + b_i is one, so D divides every D·b_i.
    """
    return sum(X.Db) == (W.N + X.k - 3) * W.D and all(x % W.D == 0 for x in X.Db)


def classify_type(W: InvertiblePolynomial, X: CorrelatorSpec) -> str:
    """Sort a candidate into NOT_X_MINUS_1 / X_MINUS_1 / X_0.

    Type X(-1) needs at least four insertions, all primitive but alpha and
    beta (sum(ell) = k - 2), both axioms, and alpha and beta in the
    standard basis of the transposed milnor ring.  So every K_i is an
    integer, and sum(K) = N + k - 2 - Σb = 1 is the dimension axiom.  Type
    X0 additionally needs the K-mass concentrated on a single summand
    (K = 1 there, 0 elsewhere) that carries at least two primitive insertions.
    """
    if X.k < 4 or sum(X.ell) != X.k - 2 or not passes_axioms(W, X):
        return NOT_X_MINUS_1
    ring = ring_of(W.transpose())
    if not all(ring.in_basis(m) for m in X.insertions[-2:]):
        return NOT_X_MINUS_1
    carriers = []
    for s in W.summands:
        k_sum = sum(X.DK[i] for i in s.variables)
        if k_sum == W.D:
            carriers.append(s)
        elif k_sum != 0:
            return X_MINUS_1
    if len(carriers) == 1 and sum(X.ell[W.head[i]] for i in carriers[0].variables) >= 2:
        return X_0
    return X_MINUS_1
