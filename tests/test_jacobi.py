from fractions import Fraction
from itertools import product as cartesian

import pytest

from lgmirror import linalg
from lgmirror.jacobi import JacobiRing, RingElement, oracle_quotient, ring_of
from lgmirror.poly import InvertiblePolynomial

F = Fraction


def ring(text):
    return JacobiRing(InvertiblePolynomial.from_string(text))


RINGS = [
    "x1^3",
    "x1^2",
    "x1^5",
    "x1^2 + x1*x2^2",            # chain transpose, mu 3
    "x1^3 + x1*x2^3",
    "x1^4 + x1*x2^2",
    "x1^3*x2 + x2^4",            # chain in the other orientation
    "x1^2 + x1*x2^2 + x2*x3^3",  # length-3 chain transpose
    "x1^2*x2 + x2^2*x1",         # loop (2,2)
    "x1^3*x2 + x2^3*x1",
    "x1^2*x2 + x2^3*x3 + x3^2*x1",
    "x1^3*x2 + x2^2*x3 + x3^2*x1",
    "x1^3 + x2^2*x3 + x3^2*x2",  # fermat ⊕ loop
    "x1^2 + x1*x2^2 + x3^3*x4 + x4^3*x3",   # chain ⊕ loop
]


# ---------------------------------------------------------------------------
# standard basis combinatorics

def test_fermat_basis():
    R = ring("x1^4")
    assert R.basis.monomials == ((0,), (1,), (2,))
    assert R.top == (2,)
    assert R.mu == 3


def test_chain_transpose_basis_excludes_corner():
    R = ring("x1^2 + x1*x2^2")
    assert set(R.basis.monomials) == {(0, 0), (1, 0), (0, 1)}
    assert R.top == (1, 0)          # weight 1/2 = central charge


def test_loop_mu_is_product():
    R = ring("x1^3*x2 + x2^3*x1")
    assert R.mu == 9
    assert R.top == (2, 2)
    R2 = ring("x1^2*x2 + x2^3*x3 + x3^2*x1")
    assert R2.mu == 12


def test_tensor_law():
    A = ring("x1^3")
    B = ring("x1^2*x2 + x2^2*x1")
    AB = ring("x1^3 + x2^2*x3 + x3^2*x2")
    assert AB.mu == A.mu * B.mu
    products = {tuple(a) + tuple(b)
                for a in A.basis.monomials for b in B.basis.monomials}
    assert set(AB.basis.monomials) == products
    assert AB.top == A.top + B.top


def test_top_weight_is_central_charge():
    for text in RINGS:
        R = ring(text)
        assert R.wt(R.top) == R.poly.charge
        same = [m for m in R.basis.monomials if R.wt(m) == R.poly.charge]
        assert same == [R.top]


def test_ring_of_is_shared_and_matches_ring():
    f = InvertiblePolynomial.from_string("x1^3*x2 + x2^4")
    g = InvertiblePolynomial.from_string("x1^3*x2 + x2^4")
    assert f is not g
    assert ring_of(f) is ring_of(g)
    assert ring_of(f).basis == JacobiRing(f).basis


@pytest.mark.parametrize("c", [
    (2, 2), (2, 3), (4, 2), (2, 2, 2), (2, 2, 3), (3, 2, 4),
    (2, 2, 2, 2), (3, 2, 2, 3), (2, 3, 4, 2), (2, 2, 2, 2, 2),
])
def test_chain_mu_alternating_sum(c):
    # μ of y1^c1 + y1·y2^c2 + … equals Σ_j (−1)^j c_1⋯c_{n−j}
    n = len(c)
    terms = ["x1^%d" % c[0]] + [
        "x%d*x%d^%d" % (i, i + 1, c[i]) for i in range(1, n)]
    R = ring(" + ".join(terms))
    expect = 0
    prod = 1
    partial = [1]
    for ci in c:
        prod *= ci
        partial.append(prod)
    for j in range(n + 1):
        expect += (-1) ** j * partial[n - j]
    assert R.mu == expect


# ---------------------------------------------------------------------------
# reduction

def test_reduce_known_values():
    assert ring("x1^4").reduce((3,)).is_zero()
    assert ring("x1^2 + x1*x2^2").reduce((2, 0)).is_zero()
    R = ring("x1^2*x2 + x2^2*x1")
    red = R.monomial_of(R.reduce((0, 2)))
    assert red == {(1, 1): F(-2)}


def test_reduce_idempotent_on_basis():
    for text in RINGS:
        R = ring(text)
        for m in R.basis.monomials:
            assert R.monomial_of(R.reduce(m)) == {m: F(1)}


def test_reduce_preserves_weight():
    for text in RINGS:
        R = ring(text)
        for m in R.basis.monomials:
            probe = tuple(e + 1 for e in m)
            w = R.wt(probe)
            for m2, _ in R.monomial_of(R.reduce(probe)).items():
                assert R.wt(m2) == w


# ---------------------------------------------------------------------------
# oracle equivalence: the rewriting engine against blind Gaussian elimination

def oracle_nf(oracle, poly):
    """Extend the oracle's normal form linearly to a polynomial dict."""
    acc = {}
    for m, c in poly.items():
        for m2, c2 in oracle.normal_form(m).items():
            acc[m2] = acc.get(m2, F(0)) + c * c2
    return {m: c for m, c in acc.items() if c != 0}


@pytest.mark.parametrize("text", RINGS)
def test_oracle_dimension_and_normal_forms(text):
    R = ring(text)
    bound = R.poly.charge + 1
    oracle = oracle_quotient(R.poly, bound)
    assert oracle.dimension == R.mu
    # the standard basis must be independent in the oracle's quotient
    sp = linalg.RowSpace(len(oracle.basis))
    oidx = {m: i for i, m in enumerate(oracle.basis)}
    for m in R.basis.monomials:
        vec = [F(0)] * len(oracle.basis)
        for m2, c in oracle.normal_form(m).items():
            vec[oidx[m2]] = c
        assert sp.add(vec), f"{text}: {m} dependent"
    # and every monomial must reduce, through the rewriting engine, to
    # something the oracle agrees equals the original modulo the ideal
    caps = [int(bound / q) + 1 for q in R.weights]
    for m in cartesian(*(range(c + 1) for c in caps)):
        if R.wt(m) > bound:
            continue
        mine = R.monomial_of(R.reduce(m))
        assert oracle_nf(oracle, mine) == oracle.normal_form(m), f"{text}: {m}"


def test_oracle_bound_too_small():
    W = InvertiblePolynomial.from_string("x1^3*x2 + x2^4")
    with pytest.raises(ValueError):
        oracle_quotient(W, W.charge - F(1, 2))


# ---------------------------------------------------------------------------
# ring structure

def basis_elements(R):
    return [RingElement(((i, F(1)),)) for i in range(R.mu)]


def test_unit_and_top_pairing():
    for text in RINGS:
        R = ring(text)
        top = R.reduce(R.top)
        assert R.residue_pairing(R.one, top) == 1
        assert R.monomial_of(R.multiply(R.one, top)) == {R.top: F(1)}


def test_fermat_pairing_antidiagonal():
    a = 6
    R = ring(f"x1^{a}")
    for r in range(a - 1):
        x_r = R.reduce((r,))
        x_dual = R.reduce((a - 2 - r,))
        assert R.residue_pairing(x_r, x_dual) == 1


def test_multiply_commutative_associative_small():
    for text in RINGS:
        R = ring(text)
        if R.mu > 30:
            continue
        els = basis_elements(R)
        for a in els:
            for b in els:
                assert R.multiply(a, b) == R.multiply(b, a)
        for a, b, c in cartesian(els, els, els):
            assert R.multiply(R.multiply(a, b), c) == R.multiply(a, R.multiply(b, c))


def test_frobenius_property():
    for text in RINGS:
        R = ring(text)
        if R.mu > 30:
            continue
        els = basis_elements(R)
        for a, b, c in cartesian(els, els, els):
            assert R.residue_pairing(R.multiply(a, b), c) == \
                R.residue_pairing(a, R.multiply(b, c))


def test_gram_symmetric_nondegenerate():
    for text in RINGS:
        R = ring(text)
        if R.mu > 30:
            continue
        g = R.gram()
        assert g == [list(row) for row in zip(*g)]
        assert linalg.determinant(g) != 0


# ---------------------------------------------------------------------------
# division with certificate

@pytest.mark.parametrize("text", RINGS)
def test_divide_certificate(text):
    R = ring(text)
    partials = R.partials()
    probes = [R.top, tuple(e + 1 for e in R.basis.monomials[min(1, R.mu - 1)]),
              tuple(e + 2 for e in R.top)]
    for probe in probes:
        nf, quot = R.divide({probe: F(1)})
        assert nf == R.reduce(probe)
        # reassemble: probe == nf + sum h_j dj f
        total = {m: c for m, c in R.monomial_of(nf).items()}
        for j, h in enumerate(quot):
            for s, cs in h.items():
                for m0, c0 in partials[j].items():
                    m = tuple(a + b for a, b in zip(s, m0))
                    total[m] = total.get(m, F(0)) + cs * c0
        total = {m: c for m, c in total.items() if c != 0}
        assert total == {probe: F(1)}
