"""Tests for the four-point associativity engine."""

import itertools
import re
from fractions import Fraction

import pytest

from lgmirror.amodel import four_point_report
from lgmirror.bmodel import sg_four_point
from lgmirror.errors import (
    InconsistentInput,
    UnderdeterminedSystem,
    UnsupportedByTheorem,
    WrongConfiguration,
)
from lgmirror.jacobi import JacobiRing
from lgmirror.linalg import invert
from lgmirror.mirror import admissible_target
from lgmirror.poly import InvertiblePolynomial
from lgmirror.wdvv import (
    _SHAPES,
    CorrelatorTable,
    fermat_closure,
    format_element,
    format_monomial,
    loop_square_chain,
    wdvv_step,
)

F = Fraction


def poly(expr):
    return InvertiblePolynomial.from_string(expr)


def two_fermat_table(a=4, b=4):
    """Table over Jac(x^a + y^b) seeded with the two standard correlators."""
    W = poly(f"x1^{a} + x2^{b}")
    ring = JacobiRing(W.transpose())
    table = CorrelatorTable(ring)
    top = ring.top
    table.set(((1, 0), (1, 0), (a - 2, 0), top), W.q[0])
    table.set(((0, 1), (0, 1), (0, b - 2), top), W.q[1])
    return W, ring, table


# ------------------------------------------------------------ table mechanics


class TestCorrelatorTable:
    def test_values_are_permutation_invariant(self):
        W, ring, table = two_fermat_table()
        top = ring.top
        insertions = [(1, 0), (1, 0), (2, 0), top]
        for perm in itertools.permutations(insertions):
            assert table.value(perm) == F(1, 4)

    def test_lookup_is_multilinear(self):
        W, ring, table = two_fermat_table()
        top = ring.top
        scaled = {(1, 0): F(3)}
        assert table.value((scaled, (1, 0), (2, 0), top)) == 3 * F(1, 4)
        mixed = {(1, 0): F(1), (0, 1): F(1)}
        # <x1+x2, x1, x1^2, top>: only the x1 component lands on a known
        # key; the x2 component gives <x2, x1, x1^2, top> which must also
        # be in the table for the lookup to answer.
        with pytest.raises(WrongConfiguration):
            table.value((mixed, (1, 0), (2, 0), top))

    def test_set_rescales_by_the_insertion_coefficients(self):
        W, ring, table = two_fermat_table()
        top = ring.top
        key = table.set(({(1, 0): F(2)}, (1, 0), (2, 0), top), F(1, 2))
        assert table.values[key] == F(1, 4)

    def test_set_refuses_spread_insertions(self):
        W, ring, table = two_fermat_table()
        top = ring.top
        spread = {(1, 0): F(1), (0, 1): F(1)}
        with pytest.raises(WrongConfiguration):
            table.set((spread, (1, 0), (2, 0), top), F(1))

    def test_unit_insertions_vanish_by_the_string_equation(self):
        W, ring, table = two_fermat_table()
        assert table.value(((0, 0), (1, 0), (2, 0), ring.top)) == 0
        assert table.expand(((0, 0), (0, 0), (0, 0), (0, 0))) == {}

    def test_unknown_correlators_are_reported(self):
        W, ring, table = two_fermat_table()
        probe = ((1, 0), (1, 0), (2, 0), (2, 0))
        assert not set(table.expand(probe)) <= set(table.values)
        with pytest.raises(WrongConfiguration):
            table.value(probe)

    def test_zero_insertion_kills_the_correlator(self):
        W, ring, table = two_fermat_table()
        # x1^3 reduces to zero in Jac(x1^4 + x2^4)
        assert table.value(((3, 0), (1, 0), (2, 0), ring.top)) == 0

    def test_pairing_inverse_is_exact(self):
        for expr in ("x1^5", "x1^2*x2 + x2^3*x1", "x1^3 + x1*x2^3"):
            ring = JacobiRing(poly(expr))
            table = CorrelatorTable(ring)
            gram = table.ring.gram()
            inverse = invert(gram)
            product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*inverse)]
                       for row in gram]
            assert product == [[int(i == j) for j in range(ring.mu)] for i in range(ring.mu)]
            assert gram == [list(row) for row in zip(*gram)]

    def test_four_insertions_required(self):
        W, ring, table = two_fermat_table()
        with pytest.raises(WrongConfiguration):
            table.value(((1, 0), (1, 0), (2, 0)))


# ------------------------------------------------------------ the identity


class TestWdvvStep:
    def test_fermat_products_vanish_and_solve_the_mixed_correlator(self):
        # <x1, x1, x1^2 x2, x1^2 x2> = <x1, x1, x1^2, x1^2 x2^2> because
        # gamma*epsilon and gamma*delta carry x1^3 = 0.
        W, ring, table = two_fermat_table()
        ident = wdvv_step(table, (1, 0), (1, 0), (2, 1), (2, 0), (0, 1))
        assert ident.solved_value == F(1, 4)
        assert ident.values[0] == ident.values[1] + ident.values[2] - ident.values[3]
        assert ident.values[2] == ident.values[3] == 0
        assert table.value(((1, 0), (1, 0), (2, 1), (2, 1))) == F(1, 4)

    def test_identity_holds_when_everything_is_known(self):
        W, ring, table = two_fermat_table()
        wdvv_step(table, (1, 0), (1, 0), (2, 1), (2, 0), (0, 1))
        # replaying the same step verifies instead of solving
        ident = wdvv_step(table, (1, 0), (1, 0), (2, 1), (2, 0), (0, 1))
        assert ident.solved is None
        assert ident.values[0] == ident.values[1] + ident.values[2] - ident.values[3]

    def test_violated_identity_is_reported(self):
        W, ring, table = two_fermat_table()
        ident = wdvv_step(table, (1, 0), (1, 0), (2, 1), (2, 0), (0, 1))
        table.values[ident.solved] += 1
        with pytest.raises(InconsistentInput):
            wdvv_step(table, (1, 0), (1, 0), (2, 1), (2, 0), (0, 1))

    def test_two_unknowns_are_refused(self):
        # starting the square-loop chain at the top correlator leaves both
        # X and the bridge correlator unknown
        a = 4
        W = poly(f"x1^{a}*x2 + x2^2*x1")
        ring = JacobiRing(W.transpose())
        table = CorrelatorTable(ring)
        table.set(((1, 0), (1, 0), (a - 2, 1), ring.top), W.q[0])
        with pytest.raises(UnderdeterminedSystem):
            wdvv_step(table, (1, 0), (0, 1), (0, 1), (1, 0), (a - 2, 1))

    def test_unit_epsilon_is_a_tautology(self):
        W, ring, table = two_fermat_table()
        top = ring.top
        # with epsilon = 1 the two product terms die by the string
        # equation and lhs cancels rhs1: nothing is determined
        with pytest.raises(UnderdeterminedSystem):
            wdvv_step(table, (1, 0), (1, 0), (2, 1), (0, 0), (2, 1))
        # over known entries the same step verifies 0 = 0: the lhs comes
        # back through gamma*epsilon = gamma and the unit-bearing terms die
        ident = wdvv_step(table, (1, 0), (1, 0), (2, 0), (0, 0), top)
        assert ident.solved is None
        assert ident.values[0] == ident.values[2]
        assert ident.values[1] == ident.values[3] == 0

    def test_rendering_shows_reduced_insertions(self):
        W, ring, table = two_fermat_table()
        ident = wdvv_step(table, (1, 0), (1, 0), (2, 1), (2, 0), (0, 1))
        assert ident.render().startswith("<x1, x1, x1^2*x2, x1^2*x2> =")
        assert "0" in ident.render()


# ------------------------------------------------------------ reconstructions


class TestFermatClosure:
    def test_two_variable_closure(self):
        W = poly("x1^4 + x2^5")
        table, chain = fermat_closure(W)
        # j = 1 pairs (x2, x2^2); j = 2 pairs (x1, x1)
        assert len(chain) == 2
        for ident in chain:
            assert ident.values[0] == (
                ident.values[1] + ident.values[2] - ident.values[3]
            )
        assert table.value(((1, 0), (1, 0), (2, 1), (2, 2))) == W.q[0]
        assert table.value(((0, 1), (0, 1), (1, 3), (1, 3))) == W.q[1]

    def test_three_cubics(self):
        W = poly("x1^3 + x2^3 + x3^3")
        table, chain = fermat_closure(W)
        assert len(chain) == 3
        assert all(ident.solved_value == F(1, 3) for ident in chain)

    def test_every_derived_value_equals_its_generator(self):
        W = poly("x1^4 + x2^4 + x3^5")
        table, chain = fermat_closure(W)
        q = {0: W.q[0], 1: W.q[1], 2: W.q[2]}
        for ident in chain:
            # the doubled insertion identifies the generating variable
            key = ident.solved
            doubled = [i for i in set(key) if key.count(i) >= 2]
            var = table.ring.basis.monomials[doubled[0]]
            j = var.index(1)
            assert ident.solved_value == q[j]

    def test_non_fermat_input_is_refused(self):
        with pytest.raises(UnsupportedByTheorem, match=re.escape(_SHAPES)):
            fermat_closure(poly("x1^2*x2 + x2^3*x1"))
        with pytest.raises(UnsupportedByTheorem, match=re.escape(_SHAPES)):
            fermat_closure(poly("x1^4 + x2^3*x3 + x3^3*x2"))
        with pytest.raises(UnsupportedByTheorem, match="exponent at least 3"):
            fermat_closure(poly("x1^2 + x2^3"))


class TestLoopSquareChain:
    @pytest.mark.parametrize("a", [3, 4, 5, 6])
    def test_reproduces_the_broad_correlator(self, a):
        W = poly(f"x1^{a}*x2 + x2^2*x1")
        table, chain = loop_square_chain(W)
        assert len(chain) == 3
        x = table.value(((0, 1), (0, 1), (1, 0), table.ring.top))
        assert x == (a - 1) * W.q[0] == W.q[1]

    @pytest.mark.parametrize("a", [3, 5])
    def test_agrees_with_both_theories(self, a):
        W = poly(f"x1^{a}*x2 + x2^2*x1")
        table, chain = loop_square_chain(W)
        x = table.value(((0, 1), (0, 1), (1, 0), table.ring.top))
        assert x == four_point_report(admissible_target(W, 2)).value
        assert x == -sg_four_point(admissible_target(W, 2))

    def test_intermediate_identities(self):
        a = 5
        W = poly(f"x1^{a}*x2 + x2^2*x1")
        table, chain = loop_square_chain(W)
        d_step, a_step, x_step = chain
        assert d_step.solved_value == W.q[0]  # D = C
        assert a_step.solved_value == -W.q[0]  # A = -(C + D)/2
        assert x_step.solved_value == W.q[1]

    def test_square_exponent_is_refused(self):
        with pytest.raises(UnsupportedByTheorem, match=re.escape(_SHAPES)):
            loop_square_chain(poly("x1^2*x2 + x2^2*x1"))

    @pytest.mark.parametrize("expr", [
        "x1^3*x2 + x2^3*x1", "x1^3*x2 + x2^2", "x1^4 + x2^2", "x1^4 + x2^3",
        "x1^3*x2 + x2^3*x3 + x3^2*x1", "x1^3*x2 + x2^2*x1 + x3^3",
    ])
    def test_other_shapes_are_refused(self, expr):
        with pytest.raises(UnsupportedByTheorem, match=re.escape(_SHAPES)):
            loop_square_chain(poly(expr))


# ------------------------------------------------------------ formatting


class TestFormatting:
    def test_monomials(self):
        assert format_monomial((0, 0)) == "1"
        assert format_monomial((2, 1)) == "x1^2*x2"

    def test_elements(self):
        ring = JacobiRing(poly("x1^2*x2 + x2^3*x1"))
        e = ring.reduce({(0, 3): F(1)})  # x2^3 = -2 x1 x2
        assert format_element(ring, e) == "-2*x1*x2"
        assert format_element(ring, ring.reduce({(3, 0): F(1)})) == "0"
