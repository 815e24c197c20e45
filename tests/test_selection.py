"""Tests for the correlator vanishing axioms and type classification."""

from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from lgmirror.errors import WrongConfiguration
from lgmirror.groups import GroupElement, generator_rho, grading_element
from lgmirror.jacobi import JacobiRing
from lgmirror.poly import InvertiblePolynomial
from lgmirror.selection import (
    NOT_X_MINUS_1,
    X_0,
    X_MINUS_1,
    CorrelatorSpec,
    classify_type,
    enumerate_candidates,
    line_bundle_degrees,
    passes_axioms,
)

F = Fraction


def _e(n, *pairs):
    m = [0] * n
    for i, v in pairs:
        m[i] = v
    return tuple(m)


def _frac(x):
    x = Fraction(x)
    return x - (x // 1)


# ---------------------------------------------------------------- build


def test_build_shape_errors():
    W = InvertiblePolynomial.from_string("x1^5")
    with pytest.raises(WrongConfiguration):
        CorrelatorSpec.build(W, [(1,), (1,)])
    with pytest.raises(WrongConfiguration):
        CorrelatorSpec.build(W, [(1, 0), (1,), (1,)])
    with pytest.raises(WrongConfiguration):
        CorrelatorSpec.build(W, [(-1,), (1,), (1,)])
    with pytest.raises(WrongConfiguration):
        CorrelatorSpec.build(W, [(2,), (1,), (1,), (1,)])


def test_head_sorted_by_descending_variable():
    W = InvertiblePolynomial.from_string("x1^3 + x2^3 + x3^3")
    X = CorrelatorSpec.build(
        W,
        [_e(3, (0, 1)), _e(3, (2, 1)), _e(3, (1, 1)), _e(3, (0, 1)), _e(3, (1, 1))],
    )
    assert X.insertions[:3] == (_e(3, (2, 1)), _e(3, (1, 1)), _e(3, (0, 1)))
    assert X.ell == (1, 1, 1)
    assert X.alpha == _e(3, (0, 1)) and X.beta == _e(3, (1, 1))


def test_identity_allowed_in_head():
    W = InvertiblePolynomial.from_string("x1^5")
    X = CorrelatorSpec.build(W, [(0,), (0,), (0,), (3,)])
    assert X.ell == (0,)
    assert X.insertions[:2] == ((0,), (0,))


# ------------------------------------------------------- worked examples


@pytest.mark.parametrize("a", [3, 4, 5, 6, 7])
def test_fermat_final_type(a):
    W = InvertiblePolynomial.from_string(f"x1^{a}")
    X = CorrelatorSpec.build(W, [(1,), (1,), (a - 2,), (a - 2,)])
    assert X.b == (F(2),)
    assert X.K == (F(1),)
    assert passes_axioms(W, X)
    assert classify_type(W, X) == X_0


def test_identity_insertions_fail_dimension():
    W = InvertiblePolynomial.from_string("x1^5")
    X = CorrelatorSpec.build(W, [(0,), (0,), (0,), (3,)])
    assert not passes_axioms(W, X)
    assert classify_type(W, X) == NOT_X_MINUS_1


def test_fractional_k_not_xminus1():
    W = InvertiblePolynomial.from_string("x1^5")
    X = CorrelatorSpec.build(W, [(1,), (1,), (1,), (1,)])
    assert X.K == (F(9, 5),)
    assert not passes_axioms(W, X)
    assert classify_type(W, X) == NOT_X_MINUS_1


def test_chain_alpha_off_basis_not_xminus1():
    # alpha = x1*x2^3 reduces to 0 in the milnor ring of x1^3 + x1*x2^4
    W = InvertiblePolynomial.from_string("x1^3*x2 + x2^4")
    X = CorrelatorSpec.build(W, [(0, 1), (0, 1), (1, 3), (0, 2)])
    assert classify_type(W, X) == NOT_X_MINUS_1


def test_three_point_never_xminus1():
    W = InvertiblePolynomial.from_string("x1^5")
    X = CorrelatorSpec.build(W, [(1,), (1,), (1,)])
    assert classify_type(W, X) == NOT_X_MINUS_1


# ------------------------------------------------------ line bundle degrees


@pytest.mark.parametrize(
    "expr",
    ["x1^5", "x1^3*x2 + x2^4", "x1^2*x2 + x2^2*x1", "x1^3 + x2^4"],
)
def test_line_bundle_three_identity_insertions(expr):
    W = InvertiblePolynomial.from_string(expr)
    J = grading_element(W)
    degs = line_bundle_degrees(W, [J, J, J])
    assert degs == [-2 * q for q in W.q]


def test_line_bundle_fermat_theta_s_h():
    a = 5
    W = InvertiblePolynomial.from_string(f"x1^{a}")
    q = W.q[0]
    rho = generator_rho(W, 1)
    theta = GroupElement((_frac(q + rho.phases[0]),))
    s = GroupElement((_frac(q - 2 * rho.phases[0] + 1),))
    h = GroupElement((1 - q,))
    assert theta.phases == (F(2, a),)
    assert s.phases == (F(a - 1, a),) and h.phases == (F(a - 1, a),)
    assert line_bundle_degrees(W, [theta, theta, s, h]) == [F(-2)]


def test_line_bundle_chain_final_type():
    # chain x1^3*x2 + x2^4, insertions (theta_N, theta_N, S_N, H)
    W = InvertiblePolynomial.from_string("x1^3*x2 + x2^4")
    n = W.N
    rho = generator_rho(W, n)
    theta = GroupElement(tuple(_frac(W.q[i] + rho.phases[i]) for i in range(n)))
    s = GroupElement(
        tuple(_frac(W.q[i] - 2 * rho.phases[i] + (1 if i == n - 1 else 0)) for i in range(n))
    )
    h = GroupElement(tuple(1 - q for q in W.q))
    degs = line_bundle_degrees(W, [theta, theta, s, h])
    assert degs == [F(-1), F(-2)]


# ------------------------------------------------------------- properties


THREE_POINT_FAMILY = [
    "x1^5",
    "x1^7",
    "x1^3 + x2^4",
    "x1^3*x2 + x2^4",
    "x1^2*x2 + x2^3*x3 + x3^3",
    "x1^2*x2 + x2^2*x1",
    "x1^2*x2 + x2^3*x1",
    "x1^2*x2 + x2^2*x3 + x3^2*x1",
    "x1^4 + x2^2*x3 + x3^3*x2",
]


@pytest.mark.parametrize("expr", THREE_POINT_FAMILY)
def test_nonzero_three_point_constants_pass_axioms(expr):
    """Every nonzero <x_j, phi_b, phi_c> has integer K summing to 1."""
    W = InvertiblePolynomial.from_string(expr)
    ring = JacobiRing(W.transpose())
    basis = ring.basis.monomials
    primitives = [m for m in basis if sum(m) == 1]
    checked = 0
    for p, (mb, mc) in product(primitives, combinations_with_replacement(basis, 2)):
        prod = ring.multiply(ring.reduce(p), ring.reduce(mb))
        if ring.residue_pairing(prod, ring.reduce(mc)) == 0:
            continue
        X = CorrelatorSpec.build(W, [p, mb, mc])
        assert all(K.denominator == 1 for K in X.K)
        assert sum(X.K) == 1
        assert passes_axioms(W, X)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("expr", ["x1^3 + x2^4", "x1^5"])
def test_fermat_splitting(expr):
    """Candidates of type X(-1) over Fermat sums concentrate on one variable:
    K_j = 1, ell_j = 2, m_j + n_j = 2a_j - 4, everything else zero."""
    W = InvertiblePolynomial.from_string(expr)
    a = [W.E[i][i] for i in range(W.N)]
    seen = 0
    for X in enumerate_candidates(W, k_max=5):
        if classify_type(W, X) == NOT_X_MINUS_1:
            continue
        js = [i for i in range(W.N) if X.K[i] == 1]
        assert len(js) == 1
        j = js[0]
        assert all(X.K[i] == 0 for i in range(W.N) if i != j)
        assert all(X.ell[i] == 0 for i in range(W.N) if i != j)
        assert X.ell[j] == 2
        assert X.alpha[j] + X.beta[j] == 2 * a[j] - 4
        seen += 1
    assert seen > 0


@pytest.mark.parametrize(
    "expr",
    ["x1^3*x2 + x2^4", "x1^2*x2 + x2^3*x1", "x1^3 + x2^2*x3 + x3^2*x2"],
)
def test_xminus1_k_mass_on_unique_summand(expr):
    """For any type X(-1) candidate the per-summand K sums are one 1, rest 0."""
    W = InvertiblePolynomial.from_string(expr)
    seen = 0
    for X in enumerate_candidates(W, k_max=4):
        kind = classify_type(W, X)
        if kind == NOT_X_MINUS_1:
            continue
        sums = sorted(sum(X.K[i] for i in s.variables) for s in W.summands)
        assert sums == [0] * (len(W.summands) - 1) + [1]
        if kind == X_0:
            carrier = next(
                s for s in W.summands if sum(X.K[i] for i in s.variables) == 1
            )
            assert sum(X.ell[i] for i in carrier.variables) >= 2
        seen += 1
    assert seen > 0


def test_enumerator_respects_caps():
    W = InvertiblePolynomial.from_string("x1^3 + x2^3")
    qt = W.transpose().q
    for X in enumerate_candidates(W, k_max=4):
        assert 3 <= X.k <= 4
        total = sum(
            sum(F(e) * qt[i] for i, e in enumerate(m)) for m in X.insertions
        )
        assert total <= W.charge + 3


def test_passes_axioms_needs_both_conditions():
    # dimension holds (five degree-1/3 insertions sum to charge + 1),
    # but K is fractional, so the integer-degree half must still reject.
    W = InvertiblePolynomial.from_string("x1^3 + x2^3")
    X = CorrelatorSpec.build(W, [(1, 0), (0, 1), (1, 1), (0, 1)])
    total = sum(F(sum(m), 3) for m in X.insertions)
    assert total == W.charge + X.k - 3
    assert X.K == (F(2, 3), F(1, 3))
    assert not passes_axioms(W, X)
    assert classify_type(W, X) == NOT_X_MINUS_1
