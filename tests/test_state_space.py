"""The mirror map ψ against the FJRW state space H_{W,G_W}, built without ψ.

For every g in G_W, the sector of g holds the G_W-invariant part of
Jac(W_g)·dx_Fix, where Fix(g) is the set of variables g fixes and W_g is
W restricted to them: the rows of E supported on Fix(g).  The basis
monomial x^a of Jac(W_g) gives an invariant form exactly when, for every
generator ρ_j, Σ_{i∈Fix}(aᵢ+1)·(D·E⁻¹)ᵢⱼ ≡ 0 mod D; a narrow sector (Fix
empty) holds one class.  Every class in the sector of g has the degree
`sector_degree(W, g)` (Krawitz, arXiv:0906.0796).

ψ sends the standard basis of Jac(Wᵗ) into sectors.  The checks: H has
dimension μ(Wᵗ); the sectors of ψ's images, and their degrees, are H's
with multiplicity; the residue pairing of Jac(Wᵗ) is nonzero only
between images in inverse sectors, and nonzero on every pair of narrow
images in inverse sectors.
"""

from collections import Counter

import pytest

from lgmirror.groups import enumerate_group, sector_degree
from lgmirror.jacobi import ring_of
from lgmirror.mirror import psi
from lgmirror.poly import InvertiblePolynomial

from support import dense_inverse, from_dense

# by shape: Fermats, chains, two- and three-variable loops with and
# without a square, a four-variable loop, and direct sums of these
RINGS = [
    "x1^2", "x1^3", "x1^6",
    "x1^3*x2 + x2^4", "x1^2*x2 + x2^3", "x1^2*x2 + x2^2*x3 + x3^3",
    "x1^3*x2 + x2^2*x3 + x3^4",
    "x1^2*x2 + x2^2*x1", "x1^3*x2 + x2^2*x1", "x1^3*x2 + x2^3*x1",
    "x1^4*x2 + x2^3*x1",
    "x1^2*x2 + x2^2*x3 + x3^2*x1", "x1^3*x2 + x2^3*x3 + x3^2*x1",
    "x1^2*x2 + x2^3*x3 + x3^4*x1",
    "x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x1",
    "x1^2 + x2^3", "x1^3 + x2^3 + x3^3", "x1^2*x2 + x2^4 + x3^3",
    "x1^3*x2 + x2^3*x1 + x3^2", "x1^2*x2 + x2^2*x1 + x3^3*x4 + x4^2*x3",
]


def state_space(W):
    """(sector, class) pairs of a basis of H_{W,G_W}: the class is a
    basis monomial of Jac(W_g) on Fix(g), or () for a narrow sector."""
    classes, DE_inv = [], dense_inverse(W)
    for g in enumerate_group(W):
        fixed = g.fixed_indices()
        if not fixed:
            classes.append((g, ()))
            continue
        rows = [[row[i] for i in fixed] for row in W.E
                if all(e == 0 or i in fixed for i, e in enumerate(row))]
        assert len(rows) == len(fixed), (W.to_string(), g)
        restricted = from_dense(rows)
        for a in ring_of(restricted).basis.monomials:
            if all(sum((ai + 1) * DE_inv[i][j] for ai, i in zip(a, fixed)) % W.D == 0
                   for j in range(W.N)):
                classes.append((g, a))
    return classes


def inverse(g, h):
    return all((a + b) % g.den == 0 for a, b in zip(g.num, h.num))


@pytest.mark.parametrize("text", RINGS)
def test_psi_matches_the_state_space(text):
    W = InvertiblePolynomial.from_string(text)
    H = state_space(W)
    ring = ring_of(W.transpose())
    images = [psi(W, m) for m in ring.basis.monomials]
    assert len(H) == ring.mu
    assert Counter(g for g, _ in H) == Counter(img.sector for img in images)
    assert (Counter(sector_degree(W, g) for g, _ in H)
            == Counter(ring.wt(m) for m in ring.basis.monomials))
    gram = ring.gram()
    for i, x in enumerate(images):
        for j, y in enumerate(images):
            if gram[i][j] != 0:
                assert inverse(x.sector, y.sector), (i, j)
            elif x.narrow and y.narrow:
                assert not inverse(x.sector, y.sector), (i, j)
