import random
from fractions import Fraction

import pytest

from lgmirror import groups
from lgmirror.errors import WrongConfiguration
from lgmirror.groups import GroupElement
from lgmirror.poly import AtomicSummand, InvertiblePolynomial
from lgmirror.selection import line_bundle_degrees

from support import criteria_atomics, from_dense, grading_element, reassemble

F = Fraction


def W(text):
    return InvertiblePolynomial.from_string(text)


def test_fermat_generator_and_grading():
    P = W("x1^5")
    rho = groups.generator_rho(P, 1)
    assert rho.phases == (F(1, 5),)
    assert grading_element(P).phases == (F(1, 5),)


def test_grading_is_product_of_generators():
    for text in ["x1^3*x2 + x2^4", "x1^2*x2 + x2^3*x3 + x3^2*x1",
                 "x1^2*x2 + x2^2*x1 + x3^4"]:
        P = W(text)
        prod = groups.identity(P)
        for j in range(1, P.N + 1):
            prod = prod * groups.generator_rho(P, j)
        assert prod == grading_element(P)


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
    assert g * g ** -1 == groups.identity(P)
    assert g ** 7 == groups.identity(P)     # group order 7


def test_group_elements_are_immutable_values():
    """A product and a power follow the group law, and an element's fields
    cannot be set."""
    g = GroupElement((1, 2), 5)
    assert (g * g, g ** 3, g ** 0) == (GroupElement((2, 4), 5), GroupElement((3, 1), 5),
                                       GroupElement((0, 0), 5))
    assert g == GroupElement(num=(1, 2), den=5) and hash(g) == hash(GroupElement((1, 2), 5))
    for name, value in [("num", (0, 0)), ("den", 7)]:
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    assert g == GroupElement((1, 2), 5)


def test_sector_kind():
    P = W("x1^3")
    J = grading_element(P)
    assert J.is_narrow()
    e = groups.identity(P)
    assert not e.is_narrow()
    assert e.fixed_indices() == (0,)


def test_group_order_multiplicative_over_summands():
    assert W("x1^4").group_order() == 4
    assert W("x1^2*x2 + x2^2*x1").group_order() == 3
    assert W("x1^2*x2 + x2^2*x1 + x3^4").group_order() == 12
    # closed forms: chain prod a_i, loop prod a_i - (-1)^N
    for text, order in [
        ("x1^3*x2 + x2^2*x3 + x3^2", 12),                 # chain
        ("x1^2*x2 + x2^3*x3 + x3^2*x1", 13),              # odd loop
        ("x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^3*x1", 23),    # even loop
    ]:
        assert W(text).group_order() == order == len(groups.enumerate_group(W(text)))


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


def closure(W):
    """The numerators of G_W by breadth-first closure of all N generators
    ρ_j, sorted: the reference the product of summand cycles must equal."""
    gens = [groups.generator_rho(W, j).num for j in range(1, W.N + 1)]
    seen = {(0,) * W.N}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for rho in gens:
                h = tuple((a + b) % W.D for a, b in zip(g, rho))
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(seen)


def seeded_sums(count, max_order):
    """``count`` direct sums of one to three Fermat/chain/loop pieces with
    exponents 2–4, each on shuffled variables and rows, of group order at
    most ``max_order``."""
    rng = random.Random("summand cycles")
    while count:
        pieces = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["fermat", "chain", "loop"])
            size = 1 if kind == "fermat" else rng.randint(2, 3)
            pieces.append((kind, tuple(rng.randint(2, 4) for _ in range(size))))
        n = sum(len(a) for _, a in pieces)
        labels = rng.sample(range(n), n)
        summands, start = [], 0
        for kind, a in pieces:
            summands.append(AtomicSummand(kind, a, tuple(labels[start:start + len(a)])))
            start += len(a)
        rows = reassemble(summands, n)
        rng.shuffle(rows)
        P = from_dense(rows)
        if P.group_order() <= max_order:
            count -= 1
            yield P


def test_enumeration_matches_the_generator_closure():
    """The product of one cycle per summand is the group the N generators
    close to, element for element and in the same order."""
    sums = list(seeded_sums(300, 5000))
    assert len({len(P.summands) for P in sums}) == 3
    for P in sums:
        assert [g.num for g in groups.enumerate_group(P)] == closure(P), P.to_string()


def test_a_short_cycle_is_refused(monkeypatch):
    """A generator of the wrong order makes the powers repeat: the
    enumeration raises instead of returning the subgroup it spans."""
    P = W("x1^4")
    rho = groups.generator_rho
    monkeypatch.setattr(groups, "generator_rho", lambda P, j: rho(P, j) ** 2)
    with pytest.raises(RuntimeError, match="4 distinct elements"):
        groups.enumerate_group(P)


def test_summand_determinant_is_the_group_order():
    for P in criteria_atomics():
        (s,) = P.summands
        assert s.det == P.D == len(groups.enumerate_group(P))


def test_enumeration_cap(monkeypatch):
    P = W("x1^101")
    monkeypatch.setenv("LGMIRROR_GROUP_CAP", "100")
    with pytest.raises(groups.GroupCapExceeded):
        groups.enumerate_group(P)
    monkeypatch.setenv("LGMIRROR_GROUP_CAP", "50")
    with pytest.raises(groups.GroupCapExceeded):
        groups.enumerate_group(P)
    monkeypatch.setenv("LGMIRROR_GROUP_CAP", "200")
    assert len(groups.enumerate_group(P)) == 101


def test_sector_degree():
    # Fermat(3): sector J² has degree 2/3−1/3 = 1/3 = ĉ
    P = W("x1^3")
    J = grading_element(P)
    assert groups.sector_degree(P, J * J) == F(1, 3)
    assert groups.sector_degree(P, J) == 0
    # identity sector of the (2,2) loop: broad, degree 1 − 2/3 = 1/3
    L = W("x1^2*x2 + x2^2*x1")
    assert groups.sector_degree(L, groups.identity(L)) == F(1, 3)


@pytest.mark.parametrize("make", [
    lambda: GroupElement((1,), 1),                               # phase 1
    lambda: GroupElement((1, -1), 3),                            # phase < 0
    lambda: GroupElement((1,), 3) * GroupElement((1, 0), 3),     # ranks
    lambda: GroupElement((1,), 3) * GroupElement((1,), 6),       # denominators
])
def test_group_element_checks_are_explicit(make):
    with pytest.raises(WrongConfiguration):
        make()


@pytest.mark.parametrize("make", [
    lambda P, J: GroupElement(tuple(2 * x for x in J.num), 2 * P.D),  # over 2·D
    lambda P, J: GroupElement(J.num[:1], P.D),                        # rank
])
def test_elements_outside_the_form_of_g_w_are_refused(make):
    """The integer phase sums need every element as N numerators over W.D;
    the same phases over 2·W.D are refused, not rescaled."""
    P = W("x1^3*x2 + x2^4")
    J = grading_element(P)
    bad = make(P, J)
    with pytest.raises(WrongConfiguration):
        groups.sector_degree(P, bad)
    with pytest.raises(WrongConfiguration):
        line_bundle_degrees(P, [J, J, bad])
