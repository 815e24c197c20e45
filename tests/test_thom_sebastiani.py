"""Thom–Sebastiani: every invariant of a direct sum W = ⊕ W_s is built from
its summands' own, each summand taken as the standalone piece `W.piece`.

On a fixed set of direct sums (μ ≤ 100, labels and rows shuffled), each
summand's restriction of a monomial is its exponents at the summand's
variables in chain order, a monomial of the piece; for Jac(Wᵗ) the rows
the summand's variables head stand in for its variables.  Then μ and |G|
are products, ĉ and the basis degrees are sums, every Gram entry of Jac(W)
is the product of the pieces' entries, so det G_W = ∏ det(G_s)^{μ/μ_s}
(the Kronecker rule; basis order permutes rows and columns together), and
ψ of a basis monomial of Jac(Wᵗ) restricts to ψ of its restrictions.
"""

import math
from fractions import Fraction
from itertools import product as cartesian

import pytest

from lgmirror.groups import enumerate_group
from lgmirror.jacobi import ring_of
from lgmirror.mirror import psi
from lgmirror.poly import InvertiblePolynomial

DIRECT_SUMS = [
    "x1^4 + x2^3*x3 + x3^2*x2",
    "x1^3 + x2^3",
    "x2^2*x1 + x3^4 + x1^3",
    "x3^2*x4 + x1^3*x2 + x4^3*x3 + x2^3*x1",
    "x4^5 + x1^2*x2 + x3^3 + x2^3*x3",
    "x3^3 + x1^2*x4 + x2^4 + x4^3*x1",
    "x5^2*x3 + x1^3 + x3^3*x2 + x4^3 + x2^2*x5",
    "x2^3*x4 + x4^3 + x1^2*x3 + x3^2*x1 + x5^3",
]


def pieces(W):
    """(summand, piece) for each summand of W."""
    return [(s, W.piece(s.variables[0])[0]) for s in W.summands]


def det(matrix):
    """The determinant of a square matrix of Fractions, by elimination."""
    rows = [list(r) for r in matrix]
    sign, value = 1, Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        value *= rows[c][c]
        for r in range(c + 1, len(rows)):
            if rows[r][c]:
                ratio = rows[r][c] / rows[c][c]
                rows[r] = [x - ratio * y for x, y in zip(rows[r], rows[c])]
    return sign * value


@pytest.mark.parametrize("text", DIRECT_SUMS)
def test_invariants_multiply_and_add(text):
    W = InvertiblePolynomial.from_string(text)
    parts = pieces(W)
    assert len(parts) > 1
    R = ring_of(W)
    rings = [ring_of(P) for _, P in parts]
    assert R.mu == math.prod(r.mu for r in rings) <= 100
    assert len(enumerate_group(W)) == math.prod(P.group_order() for _, P in parts)
    assert W.charge == sum(P.charge for _, P in parts)

    def restrictions(m):
        return [tuple(m[v] for v in s.variables) for s, _ in parts]

    # the basis is the product of the pieces' bases, its degrees added
    monos = R.basis.monomials
    assert sorted(tuple(restrictions(m)) for m in monos) == \
        sorted(cartesian(*(r.basis.monomials for r in rings)))
    for m in monos:
        assert R.wt(m) == sum(r.wt(ms) for r, ms in zip(rings, restrictions(m)))

    # each Gram entry is the product of the pieces' entries
    G, grams = R.gram(), [r.gram() for r in rings]
    cut = [[r.basis.index[ms] for r, ms in zip(rings, restrictions(m))] for m in monos]
    for i, j in cartesian(range(R.mu), repeat=2):
        assert G[i][j] == math.prod(g[a][b] for g, a, b in zip(grams, cut[i], cut[j]))
    assert det(G) == math.prod(det(g) ** (R.mu // r.mu) for g, r in zip(grams, rings))


def test_the_gram_determinant_is_not_the_product_of_the_pieces():
    """x^4 ⊕ loop(3, 2): det G_W = 125 = (−1)^6·5^3, where the plain
    product of the pieces' determinants reads −1·5."""
    W = InvertiblePolynomial.from_string(DIRECT_SUMS[0])
    dets = [det(ring_of(P).gram()) for _, P in pieces(W)]
    assert (det(ring_of(W).gram()), dets) == (125, [-1, 5])


@pytest.mark.parametrize("text", DIRECT_SUMS)
def test_psi_restricts_to_the_pieces(text):
    """ψ(m) on Jac(Wᵗ): its phases at a summand's variables are ψ's phases of
    the piece, it is narrow when every piece's class is, its degree is the
    sum of theirs, and a piece's broad monomial is W's, restricted."""
    W = InvertiblePolynomial.from_string(text)
    parts = pieces(W)
    for m in ring_of(W.transpose()).basis.monomials:
        cls = psi(W, m)
        restricted = [psi(P, tuple(m[W.head[v]] for v in s.variables)) for s, P in parts]
        for (s, _), c in zip(parts, restricted):
            assert [cls.sector.phases[v] for v in s.variables] == list(c.sector.phases)
            if not c.narrow:
                on_s = tuple(cls.broad_monomial[W.head[v]] for v in s.variables) if cls.broad_monomial else ()
                assert (on_s if any(on_s) else None) == c.broad_monomial
        assert cls.narrow == all(c.narrow for c in restricted)
        assert cls.degree == sum(c.degree for c in restricted)
