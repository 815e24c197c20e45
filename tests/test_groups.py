from fractions import Fraction

import pytest

from lgmirror import groups
from lgmirror.groups import GroupElement
from lgmirror.poly import InvertiblePolynomial

F = Fraction


def W(text):
    return InvertiblePolynomial.from_string(text)


def test_fermat_generator_and_grading():
    P = W("x1^5")
    rho = groups.generator_rho(P, 1)
    assert rho.phases == (F(1, 5),)
    assert groups.grading_element(P).phases == (F(1, 5),)


def test_grading_is_product_of_generators():
    for text in ["x1^3*x2 + x2^4", "x1^2*x2 + x2^3*x3 + x3^2*x1",
                 "x1^2*x2 + x2^2*x1 + x3^4"]:
        P = W(text)
        prod = groups.identity(P.N)
        for j in range(1, P.N + 1):
            prod = prod * groups.generator_rho(P, j)
        assert prod == groups.grading_element(P)


def test_loop22_generator_phases():
    # E⁻¹ column (2/3, −1/3) wraps to phases (2/3, 2/3)
    P = W("x1^2*x2 + x2^2*x1")
    assert groups.generator_rho(P, 1).phases == (F(2, 3), F(2, 3))


def test_generators_leave_polynomial_invariant():
    P = W("x1^3*x2 + x2^2*x3 + x3^5 + x4^2*x5 + x5^3*x4")
    for j in range(1, P.N + 1):
        rho = groups.generator_rho(P, j)
        for row in P.E:
            s = sum((e * p for e, p in zip(row, rho.phases)), F(0))
            assert s.denominator == 1


def test_compose_inverse_identity():
    P = W("x1^2*x2 + x2^4*x1")
    g = groups.generator_rho(P, 1)
    assert (g * g.inverse()).is_identity()
    assert g ** 7 == groups.identity(2)     # group order 7


def test_sector_kind():
    P = W("x1^3")
    J = groups.grading_element(P)
    assert groups.sector_kind(J).narrow
    assert J.is_narrow()
    e = groups.identity(1)
    kind = groups.sector_kind(e)
    assert not kind.narrow
    assert kind.fixed == (0,)
    assert str(kind) == "broad[0]"


def test_group_order_multiplicative_over_summands():
    assert W("x1^4").group_order() == 4
    assert W("x1^2*x2 + x2^2*x1").group_order() == 3
    assert W("x1^2*x2 + x2^2*x1 + x3^4").group_order() == 12


@pytest.mark.parametrize("text", [
    "x1^4",
    "x1^3*x2 + x2^4",
    "x1^2*x2 + x2^3*x3 + x3^2*x1",
    "x1^2*x2 + x2^2*x1 + x3^3",
])
def test_enumeration_matches_determinant(text):
    P = W(text)
    elements = groups.enumerate_group(P)
    assert len(elements) == P.group_order()
    assert len(set(elements)) == len(elements)


def test_enumeration_cap(monkeypatch):
    P = W("x1^101")
    with pytest.raises(groups.GroupCapExceeded):
        groups.enumerate_group(P, cap=100)
    monkeypatch.setenv("LGMIRROR_GROUP_CAP", "50")
    with pytest.raises(groups.GroupCapExceeded):
        groups.enumerate_group(P)
    monkeypatch.setenv("LGMIRROR_GROUP_CAP", "200")
    assert len(groups.enumerate_group(P)) == 101


def test_sector_degree():
    # Fermat(3): sector J² has degree 2/3−1/3 = 1/3 = ĉ
    P = W("x1^3")
    J = groups.grading_element(P)
    assert groups.sector_degree(P, J * J) == F(1, 3)
    assert groups.sector_degree(P, J) == 0
    # identity sector of the (2,2) loop: broad, degree 1 − 2/3 = 1/3
    L = W("x1^2*x2 + x2^2*x1")
    assert groups.sector_degree(L, groups.identity(2)) == F(1, 3)


def test_json_phases():
    g = GroupElement((F(1, 3), F(0)))
    assert g.json_phases() == ["1/3", "0/1"]
