import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lgmirror import linalg
from lgmirror.poly import (
    InvertiblePolynomial,
    NotInvertibleShape,
    PolynomialSyntaxError,
    chain_inverse_entries,
    loop_inverse_entries,
    parse_exponent_matrix,
    reassemble,
)

F = Fraction


# ---------------------------------------------------------------------------
# parsing

def test_parse_simple_chain():
    assert parse_exponent_matrix("x1^3*x2 + x2^4") == [[3, 1], [0, 4]]


def test_parse_implicit_exponent_and_whitespace():
    assert parse_exponent_matrix(" x1^2 * x2  +  x2^3 ") == [[2, 1], [0, 3]]


def test_parse_repeated_factor_accumulates():
    # x1*x1 is legal input text for x1^2
    assert parse_exponent_matrix("x1*x1 + x1*x2^2")[0] == [2, 0]


@pytest.mark.parametrize("bad", [
    "",
    "x1^3 +",
    "x1^3 + + x2^2",
    "y1^3",
    "x0^3",
    "x1^0",
    "x1^-2",
    "x1^3*x2",          # 1 monomial, 2 variables
    "x1^3 + x2^2 + x1*x2",   # 3 monomials, 2 variables
    "x1^3 + x3^3",      # missing x2
    "x1^3 + x1^3",      # repeated monomial
])
def test_parse_rejects(bad):
    with pytest.raises(PolynomialSyntaxError):
        InvertiblePolynomial.from_string(bad)


def test_from_json():
    W = InvertiblePolynomial.from_json(json.dumps({"E": [[3]]}))
    assert W.describe() == "Fermat(3)"
    with pytest.raises(PolynomialSyntaxError):
        InvertiblePolynomial.from_json('{"matrix": [[3]]}')
    with pytest.raises(PolynomialSyntaxError):
        InvertiblePolynomial.from_json('not json')


# ---------------------------------------------------------------------------
# classification

def test_classify_fermat():
    W = InvertiblePolynomial.from_exponent_matrix([[3]])
    assert [s.kind for s in W.summands] == ["fermat"]
    assert W.q == (F(1, 3),)


def test_classify_mixed_sum():
    W = InvertiblePolynomial.from_string("x1^2*x2 + x2^2*x1 + x3^4")
    assert W.describe() == "Loop(2,2) ⊕ Fermat(4)"
    assert W.q == (F(1, 3), F(1, 3), F(1, 4))


def test_classify_chain_both_orientations():
    head = InvertiblePolynomial.from_string("x1^2*x2 + x2^3")
    tail = InvertiblePolynomial.from_string("x1^2 + x1*x2^3")
    assert head.summands[0].kind == "chain"
    assert tail.summands[0].kind == "chain"
    assert head.summands[0].exponents == (2, 3)
    # transposed orientation reads as the reversed chain
    assert tail.summands[0].exponents == (3, 2)
    assert tail.summands[0].variables == (1, 0)


def test_loop_canonical_rotation():
    W = InvertiblePolynomial.from_string("x1^4*x2 + x2^2*x3 + x3^3*x1")
    s = W.summands[0]
    assert s.kind == "loop"
    # rotations of (4,2,3): itself, (2,3,4), (3,4,2); smallest is (2,3,4)
    assert s.exponents == (2, 3, 4)
    assert s.variables == (1, 2, 0)


@pytest.mark.parametrize("bad_E", [
    [[1]],                      # linear monomial
    [[2, 1], [1, 2], [0, 0]],   # not square caught earlier, use square zero row
    [[3, 0], [0, 0]],
    [[2, 2], [1, 2]],           # two quadratic factors in one monomial
    [[2, 1], [2, 1]],           # x1 heads two monomials (also repeated row)
    [[2, 1, 0], [1, 2, 0], [0, 1, 2]],   # tail attaches to a loop
])
def test_classify_rejects(bad_E):
    with pytest.raises((NotInvertibleShape, PolynomialSyntaxError)):
        InvertiblePolynomial.from_exponent_matrix(bad_E)


def test_reassemble_roundtrip():
    W = InvertiblePolynomial.from_string(
        "x1^3*x2 + x2^2*x3 + x3^5 + x4^2*x5 + x5^3*x4 + x6^7")
    rows = reassemble(W.summands, W.N)
    assert sorted(map(tuple, rows)) == sorted(W.monomials())


# ---------------------------------------------------------------------------
# weights and central charge

def test_weights_known_chain():
    W = InvertiblePolynomial.from_string("x1^3*x2 + x2^4")
    assert W.q == (F(1, 4), F(1, 4))
    assert W.charge == 1


def test_weights_satisfy_defining_equation():
    W = InvertiblePolynomial.from_string("x1^2*x2 + x2^3*x3 + x3^4*x1")
    assert linalg.mat_vec(W.E, list(W.q)) == [F(1)] * 3


def test_weight_half_flags():
    A1 = InvertiblePolynomial.from_string("x1^2")
    assert A1.weight_half_variables() == (0,)
    assert A1.chain_weight_half_tails() == ()
    C = InvertiblePolynomial.from_string("x1^2*x2 + x2^2")
    assert C.q == (F(1, 4), F(1, 2))
    assert C.chain_weight_half_tails() == (1,)


def test_transpose_is_involution_and_preserves_charge():
    W = InvertiblePolynomial.from_string("x1^3*x2 + x2^2*x3 + x3^4")
    Wt = W.transpose()
    assert Wt.transpose().E == W.E
    assert Wt.charge == W.charge
    assert W.group_order() == Wt.group_order()


def test_inverse_is_computed_once():
    W = InvertiblePolynomial.from_string("x1^3*x2 + x2^2*x3 + x3^4*x1")
    assert W.inverse_exponents() is W.inverse_exponents()
    assert [list(row) for row in W.inverse_exponents()] == linalg.invert(W.E)


def test_chain_transpose_shape():
    # chain x1^2*x2 + x2^3 transposes to x1^2 + x1*x2^3
    W = InvertiblePolynomial.from_string("x1^2*x2 + x2^3")
    assert W.transpose().to_string() == "x1^2 + x1*x2^3"


# ---------------------------------------------------------------------------
# closed-form inverse entries vs. generic elimination

atomic_exps = st.lists(st.integers(2, 6), min_size=1, max_size=5)


@given(atomic_exps)
def test_chain_inverse_closed_form(a):
    E = [[0] * len(a) for _ in a]
    for i, ai in enumerate(a):
        E[i][i] = ai
        if i + 1 < len(a):
            E[i][i + 1] = 1
    assert chain_inverse_entries(a) == linalg.invert(E)


@given(st.lists(st.integers(2, 6), min_size=2, max_size=5))
def test_loop_inverse_closed_form(a):
    n = len(a)
    E = [[0] * n for _ in range(n)]
    for i, ai in enumerate(a):
        E[i][i] = ai
        E[i][(i + 1) % n] = 1
    assert loop_inverse_entries(a) == linalg.invert(E)


def test_loop_inverse_hand_checked():
    # loop x1^2*x2 + x2^4*x1: det 7, inverse (1/7)[[4,-1],[-1,2]]
    assert loop_inverse_entries([2, 4]) == [[F(4, 7), F(-1, 7)],
                                            [F(-1, 7), F(2, 7)]]


def test_loop_weights_hand_checked():
    W = InvertiblePolynomial.from_string("x1^2*x2 + x2^3*x3 + x3^2*x1")
    assert W.q == (F(5, 13), F(3, 13), F(4, 13))
    W2 = InvertiblePolynomial.from_string("x1^3*x2 + x2^2*x3 + x3^2*x1")
    assert W2.q == (F(3, 13), F(4, 13), F(5, 13))


@given(atomic_exps)
def test_fermat_chain_weights_positive_bounded(a):
    rho = chain_inverse_entries(a)
    q = [sum(row, F(0)) for row in rho]
    assert all(0 < qi <= F(1, 2) for qi in q)
