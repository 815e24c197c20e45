"""Tests for the Brieskorn-lattice reduction and the B-model correlators."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lgmirror.amodel import fjrw_four_point
from lgmirror.bmodel import (
    LatticeElement,
    brieskorn_reduce,
    good_basis_check,
    pairing_solution,
    perturbative_expand,
    sg_four_point,
)
from lgmirror.errors import UnsupportedByTheorem, WrongConfiguration
from lgmirror.jacobi import JacobiRing, ring_of
from lgmirror.linalg import solve
from lgmirror.poly import AtomicSummand, InvertiblePolynomial, reassemble

F = Fraction


def atomic(kind, a):
    n = len(a)
    raw = reassemble([AtomicSummand(kind, tuple(a), tuple(range(n)))], n)
    return InvertiblePolynomial.from_exponent_matrix(raw)


def assemble(*pieces):
    """Direct sum of atomic pieces on consecutive variables."""
    summands = []
    offset = 0
    for kind, a in pieces:
        vs = tuple(range(offset, offset + len(a)))
        summands.append(AtomicSummand(kind, tuple(a), vs))
        offset += len(a)
    return InvertiblePolynomial.from_exponent_matrix(reassemble(summands, offset))


def weights_oracle(W):
    """Solve E q = (1, ..., 1) directly."""
    return solve([list(row) for row in W.E], [F(1)] * W.N)


def element_weight(f, e):
    """Common weight of the terms of e, wt(z) = 1 and wt([d^Nx]) = sum(q_i);
    None when e is zero or mixes weights."""
    ring = ring_of(f)
    offset = sum(f.q, F(0))
    seen = {k + ring.wt(m) + offset for k, poly in e.terms.items() for m in poly}
    return seen.pop() if len(seen) == 1 else None


def one(n):
    return LatticeElement.from_poly((0,) * n)


# ------------------------------------------------------------ lattice elements


class TestLatticeElement:
    def test_zero_coefficients_are_dropped(self):
        e = LatticeElement({0: {(1, 0): F(0)}, 1: {}})
        assert e.is_zero()
        assert e == LatticeElement()

    def test_from_poly_accepts_monomial_or_dict(self):
        assert LatticeElement.from_poly((2, 1)) == LatticeElement.from_poly(
            {(2, 1): F(1)}
        )
        e = LatticeElement.from_poly({(3,): F(1, 2)}, z=-2)
        assert e.z_powers == (-2,)
        assert e.coefficient(-2, (3,)) == F(1, 2)
        assert e.coefficient(0, (3,)) == 0

    def test_addition_cancels_exactly(self):
        a = LatticeElement.from_poly({(1,): F(2, 3)}, z=1)
        b = LatticeElement.from_poly({(1,): F(-2, 3)}, z=1)
        assert (a + b).is_zero()
        assert (a - a).is_zero()
        assert a + LatticeElement() == a

    def test_scale_shift_times(self):
        e = LatticeElement.from_poly({(1, 0): F(2)})
        assert e.scale(F(1, 2)) == LatticeElement.from_poly((1, 0))
        assert e.shift(-1).z_powers == (-1,)
        assert e.times((0, 2), dz=-1, c=F(1, 2)) == LatticeElement.from_poly(
            (1, 2), z=-1
        )

    def test_split_z(self):
        e = LatticeElement(
            {-1: {(0,): F(1)}, 0: {(1,): F(2)}, 2: {(0,): F(3)}}
        )
        plus, minus = e.split_z()
        assert plus.z_powers == (0, 2)
        assert minus.z_powers == (-1,)
        assert plus + minus == e

    @pytest.mark.parametrize("z", [-4, 3, 7])
    def test_window_is_enforced(self, z):
        with pytest.raises(WrongConfiguration):
            LatticeElement({z: {(0,): F(1)}})

    def test_shift_out_of_window_is_refused(self):
        e = LatticeElement.from_poly((0,), z=2)
        with pytest.raises(WrongConfiguration):
            e.shift(1)


# ------------------------------------------------------------ worked reductions
#
# The defining rule trades df/dx_j * h for -z dh/dx_j.  On the monomials
# M_i of the transposed polynomial it collapses to [M_i d^Nx] = -q_i z [d^Nx]
# with q_i the weight of x_i in W itself.


class TestWorkedReductions:
    @pytest.mark.parametrize("a", range(2, 10))
    def test_fermat_power_drops_one_z_level(self, a):
        # x^a = (x/a) * ax^{a-1}, so [x^a] = -z [d(x/a)] = -(z/a) [1].
        f = atomic("fermat", (a,))
        reduced = brieskorn_reduce(f, LatticeElement.from_poly((a,)))
        assert reduced == LatticeElement({1: {(0,): F(-1, a)}})

    def test_chain_final_monomial(self):
        # W = x^3 y + y^4, f = W^t = x^3 + x y^4: the second monomial of f
        # is (1/4) y d/dy(f), hence [x y^4] = -(z/4)[1] = -q_2(W) z [1].
        W = atomic("chain", (3, 4))
        f = W.transpose()
        m2 = tuple(W.E[j][1] for j in range(2))
        assert m2 == (1, 4)
        reduced = brieskorn_reduce(f, LatticeElement.from_poly(m2))
        assert reduced == LatticeElement({1: {(0, 0): F(-1, 4)}})
        assert weights_oracle(W)[1] == F(1, 4)

    @pytest.mark.parametrize("a", [(2, 3, 2), (3, 3), (2, 3, 4, 5)])
    def test_loop_monomials_reduce_to_their_weight(self, a):
        # The loop rows rewrite cyclically, a_i [M_i] + [M_{i+1}] = -z [1];
        # the solution is [M_i] = -q_i z [1] because E q = (1, ..., 1).
        W = atomic("loop", a)
        f = W.transpose()
        q = weights_oracle(W)
        n = W.N
        for i in range(n):
            mi = tuple(W.E[j][i] for j in range(n))
            reduced = brieskorn_reduce(f, LatticeElement.from_poly(mi))
            assert reduced == LatticeElement({1: {(0,) * n: -q[i]}})

    def test_jacobian_multiple_with_constant_quotient_vanishes(self):
        # x^{a-1} dx = (1/a) df is killed outright: d(1/a) = 0.
        f = atomic("fermat", (5,))
        assert brieskorn_reduce(f, LatticeElement.from_poly((4,))).is_zero()

    def test_window_overflow_raises(self):
        # Reducing x^14 in the x^4 lattice climbs three z-levels.
        f = atomic("fermat", (4,))
        with pytest.raises(WrongConfiguration):
            brieskorn_reduce(f, LatticeElement.from_poly((14,)))


# ------------------------------------------------------------ reduction laws

REDUCTION_RINGS = [
    atomic("fermat", (4,)),
    atomic("chain", (3, 3)).transpose(),
    atomic("loop", (2, 3)),
    atomic("loop", (2, 3, 2)).transpose(),
]


class TestReductionProperties:
    @settings(deadline=None)
    @given(data=st.data())
    def test_z0_part_agrees_with_jacobi_normal_form(self, data):
        # The z^0 layer of the reduction must be the Jacobi-ring normal
        # form computed by the closed-form summand rules -- two routes.
        f = data.draw(st.sampled_from(REDUCTION_RINGS))
        ring = JacobiRing(f)
        m = data.draw(
            st.tuples(*(st.integers(0, 6) for _ in range(f.N))).filter(
                lambda m: ring.wt(m) <= 2
            )
        )
        reduced = brieskorn_reduce(f, LatticeElement.from_poly(m))
        assert reduced.poly_at(0) == ring.monomial_of(ring.reduce(m))

    @settings(deadline=None)
    @given(data=st.data())
    def test_reduction_is_linear(self, data):
        f = data.draw(st.sampled_from(REDUCTION_RINGS))
        ring = JacobiRing(f)
        monos = st.tuples(*(st.integers(0, 5) for _ in range(f.N))).filter(
            lambda m: ring.wt(m) <= 2
        )
        a = LatticeElement.from_poly({data.draw(monos): data.draw(st.integers(-3, 3))})
        b = LatticeElement.from_poly({data.draw(monos): data.draw(st.integers(-3, 3))})
        lhs = brieskorn_reduce(f, a + b)
        rhs = brieskorn_reduce(f, a) + brieskorn_reduce(f, b)
        assert lhs == rhs

    @settings(deadline=None)
    @given(data=st.data())
    def test_reduction_preserves_weight(self, data):
        f = data.draw(st.sampled_from(REDUCTION_RINGS))
        ring = JacobiRing(f)
        m = data.draw(
            st.tuples(*(st.integers(0, 6) for _ in range(f.N))).filter(
                lambda m: ring.wt(m) <= 2
            )
        )
        e = LatticeElement.from_poly(m)
        reduced = brieskorn_reduce(f, e)
        if not reduced.is_zero():
            assert element_weight(f, reduced) == element_weight(f, e)

    def test_reduction_commutes_with_z_shift(self):
        f = atomic("loop", (2, 3))
        e = LatticeElement.from_poly({(2, 1): F(3), (1, 3): F(-1, 2)})
        down = brieskorn_reduce(f, e.shift(-2))
        assert down == brieskorn_reduce(f, e).shift(-2)

    def test_basis_elements_are_fixed(self):
        for f in REDUCTION_RINGS:
            ring = JacobiRing(f)
            for m in ring.basis.monomials:
                e = LatticeElement.from_poly(m, z=-1)
                assert brieskorn_reduce(f, e) == e


class TestElementWeight:
    def test_homogeneous_weight(self):
        f = atomic("fermat", (5,))
        e = LatticeElement.from_poly({(2,): F(7)}, z=1)
        assert element_weight(f, e) == 1 + F(2, 5) + F(1, 5)

    def test_mixed_weights_return_none(self):
        f = atomic("fermat", (5,))
        e = LatticeElement.from_poly({(0,): F(1), (1,): F(1)})
        assert element_weight(f, e) is None

    def test_zero_returns_none(self):
        assert element_weight(atomic("fermat", (3,)), LatticeElement()) is None


# ------------------------------------------------------------ good basis
#
# Over one atomic transpose the pairing of basis elements x^r, x^r' can be
# nonzero only when k . E = r + r' + 2 has an integer solution, and the
# solutions that actually appear must fall in the per-type families with
# deg x^{r + r'} equal to the central charge.


class TestGoodBasis:
    def test_fermat_report(self):
        f = atomic("fermat", (5,))
        report = good_basis_check(f)
        assert report.passed
        assert report.kind == "fermat"
        assert report.mu == 4
        assert report.families_seen == ((1,),)
        # pairs (r, r') with r + r' = a - 2 = the socle exponent
        assert report.admissible_pairs == 2
        assert report.checked_pairs == 10

    def test_chain_transpose_families(self):
        f = atomic("chain", (3, 4)).transpose()
        report = good_basis_check(f)
        assert report.passed
        assert report.kind == "chain"
        assert set(report.families_seen) == {(1, 1), (0, 2)}

    def test_even_loop_sees_both_alternating_families(self):
        report = good_basis_check(atomic("loop", (3, 3)))
        assert report.passed
        assert set(report.families_seen) == {(1, 1), (2, 0), (0, 2)}

    def test_odd_loop_sees_only_the_ones_family(self):
        report = good_basis_check(atomic("loop", (2, 3, 2)).transpose())
        assert report.passed
        assert report.families_seen == ((1, 1, 1),)

    def test_admissible_classes_land_on_the_central_charge(self):
        f = atomic("chain", (4, 3, 2)).transpose()
        report = good_basis_check(f)
        assert report.passed
        ring = JacobiRing(f)
        for cls in report.classes:
            assert ring.wt(cls.exponent_sum) == f.charge

    def test_pair_counts_add_up(self):
        f = atomic("loop", (2, 3, 4)).transpose()
        report = good_basis_check(f)
        mu = report.mu
        assert report.checked_pairs == mu * (mu + 1) // 2
        assert report.admissible_pairs + report.excluded_pairs <= report.checked_pairs

    @pytest.mark.parametrize(
        "f",
        [
            atomic("chain", (3, 3, 3)).transpose(),
            atomic("chain", (2, 4, 3)).transpose(),
            atomic("loop", (3, 4)),
            atomic("loop", (2, 3, 2, 3)).transpose(),
        ],
    )
    def test_every_class_k_matches_the_exact_solver(self, f):
        # Dual route for the vectorized integer sweep: each class k must
        # agree with the Fraction-based solve, and each excluded exponent
        # sum must genuinely have no integral solution.
        report = good_basis_check(f)
        assert report.passed
        for cls in report.classes:
            assert pairing_solution(f, cls.exponent_sum) == cls.k
        ring = JacobiRing(f)
        admissible = {cls.exponent_sum for cls in report.classes}
        seen = 0
        for r, rp in itertools.combinations_with_replacement(
            ring.basis.monomials, 2
        ):
            m = tuple(a + b for a, b in zip(r, rp))
            if m not in admissible and seen < 40:
                assert pairing_solution(f, m) is None
                seen += 1

    def test_excluded_chain_pattern_never_comes_from_basis_pairs(self):
        # k = (2, 0, 2) solves k . E = m + 2 for m = (4, 0, 4) over the
        # transpose of the chain (3, 3, 3) but lies outside the allowed
        # families; no pair of standard-basis monomials produces that m.
        f = atomic("chain", (3, 3, 3)).transpose()
        m = (4, 0, 4)
        assert pairing_solution(f, m) == (2, 0, 2)
        report = good_basis_check(f)
        assert all(cls.exponent_sum != m for cls in report.classes)

    def test_non_integral_solution_is_none(self):
        assert pairing_solution(atomic("fermat", (5,)), (1,)) is None

    def test_multiple_summands_are_refused(self):
        W = assemble(("fermat", (3,)), ("fermat", (4,)))
        with pytest.raises(WrongConfiguration):
            good_basis_check(W)


# ------------------------------------------------------------ primitive form
#
# exp((F - f)/z) zeta = J, solved order by order in the deformation
# F = f + sum_a s_a phi_a over the standard basis.

SERIES_CASES = [
    # (W, target index i); the expansion runs over f = W^t.
    (atomic("fermat", (3,)), 1),
    (atomic("fermat", (5,)), 1),
    (atomic("chain", (3, 3)), 2),
    (atomic("loop", (2, 3)), 2),
]


def series_setup(W, i):
    f = W.transpose()
    ring = JacobiRing(f)
    n = f.N
    t = i - 1
    target = tuple(W.E[j][t] for j in range(n))
    x = tuple(1 if j == t else 0 for j in range(n))
    s = tuple(e - 2 if j == t else e for j, e in enumerate(target))
    return f, ring, ring.basis.index[x], ring.basis.index[s]


class TestPerturbativeExpansion:
    def test_order_zero_is_the_volume_class(self):
        f = atomic("loop", (2, 3))
        state = perturbative_expand(f, 0)
        assert state.zeta == {(): one(2)}
        assert state.jfunc == {(): one(2)}

    @pytest.mark.parametrize("order", [-1, 4, 10])
    def test_orders_beyond_three_are_refused(self, order):
        with pytest.raises(WrongConfiguration):
            perturbative_expand(atomic("fermat", (3,)), order)

    @pytest.mark.parametrize("W,i", SERIES_CASES)
    def test_first_order_leaves_zeta_untouched(self, W, i):
        # phi_a / z is already reduced, so zeta_(<=1) = [d^Nx].
        f = W.transpose()
        state = perturbative_expand(f, 1)
        assert set(state.zeta) == {()}
        mu = len(state.basis)
        for a in range(mu):
            entry = state.jfunc[(a,)]
            assert entry == LatticeElement.from_poly(state.basis[a], z=-1)

    @pytest.mark.parametrize("W,i", SERIES_CASES)
    def test_jfunc_lives_below_z0(self, W, i):
        state = perturbative_expand(W.transpose(), 3)
        for smono, entry in state.jfunc.items():
            if smono:
                assert all(k < 0 for k in entry.z_powers)

    @pytest.mark.parametrize("W,i", SERIES_CASES)
    def test_flat_coordinates_start_at_the_identity(self, W, i):
        state = perturbative_expand(W.transpose(), 2)
        mu = len(state.basis)
        for a in range(mu):
            flat = state.flat_coordinate(a)
            linear = {sm: c for sm, c in flat.items() if len(sm) == 1}
            assert linear == {(a,): F(1)}

    @pytest.mark.parametrize("W,i", SERIES_CASES)
    def test_no_quadratic_correction_in_the_target_directions(self, W, i):
        # The deformation directions entering the four-point extraction
        # keep t = s + O(s^3): their products reduce without positive
        # z-powers, so J has no z^{-1} component on those s-monomials.
        f, ring, ix, isv = series_setup(W, i)
        state = perturbative_expand(f, 2)
        mu = len(state.basis)
        for pair in ((ix, ix), (ix, isv)):
            smono = tuple(sorted(pair))
            for a in range(mu):
                assert state.j_coefficient(-1, smono, a) == 0

    @pytest.mark.parametrize("W,i", SERIES_CASES)
    def test_four_point_extraction_matches_the_direct_collapse(self, W, i):
        # Cross-route: read the cubic z^{-2} [d^Nx] coefficient out of the
        # full order-3 series and compare with sg_four_point, which only
        # ever reduces the single cubic term.
        f, ring, ix, isv = series_setup(W, i)
        state = perturbative_expand(f, 3)
        unit_index = ring.basis.index[(0,) * f.N]
        smono = tuple(sorted((ix, ix, isv)))
        multiplicity = 6 if ix == isv else 2
        value = multiplicity * state.j_coefficient(-2, smono, unit_index)
        assert value == sg_four_point(W, i)

    def test_zeta_corrections_appear_only_at_the_top_weight(self):
        # For the symmetric loop the only positive z-power at quadratic
        # order comes from top*top (weight 2 = twice the central charge).
        f = atomic("loop", (3, 3))
        state = perturbative_expand(f, 2)
        ring = JacobiRing(f)
        top = ring.basis.index[ring.basis.top]
        quad = [sm for sm in state.zeta if len(sm) == 2]
        assert quad == [(top, top)]


# ------------------------------------------------------------ the correlator


class TestFourPoint:
    @pytest.mark.parametrize("a", range(3, 10))
    def test_fermat_values(self, a):
        W = atomic("fermat", (a,))
        assert sg_four_point(W, 1) == -F(1, a)

    @pytest.mark.parametrize(
        "a", [(3, 3), (3, 4), (2, 5), (4, 3), (2, 2, 3), (3, 4, 5), (2, 2, 2, 3)]
    )
    def test_chain_final_variable(self, a):
        W = atomic("chain", a)
        n = len(a)
        assert sg_four_point(W, n) == -weights_oracle(W)[n - 1]

    @pytest.mark.parametrize(
        "a", [(2, 3), (3, 3), (4, 5), (2, 3, 2), (2, 3, 4), (3, 3, 3), (2, 3, 4, 5)]
    )
    def test_loop_all_variables(self, a):
        W = atomic("loop", a)
        q = weights_oracle(W)
        for i in range(1, len(a) + 1):
            assert sg_four_point(W, i) == -q[i - 1]

    def test_symmetric_loop_value(self):
        # E = [[3, 1], [1, 3]] gives q = (1/4, 1/4).
        W = atomic("loop", (3, 3))
        assert weights_oracle(W) == [F(1, 4), F(1, 4)]
        assert sg_four_point(W, 2) == -F(1, 4)

    def test_cubic_fermat_is_the_degenerate_case(self):
        # M_1/x^2 = x: all three non-top insertions coincide.
        assert sg_four_point(atomic("fermat", (3,)), 1) == -F(1, 3)

    def test_direct_sums_localize_to_the_summand(self):
        W = assemble(("fermat", (5,)), ("loop", (3, 3)), ("chain", (3, 4)))
        q = weights_oracle(W)
        for i in (1, 2, 3, 5):
            assert sg_four_point(W, i) == -q[i - 1]

    @pytest.mark.parametrize(
        "W,i",
        [
            (atomic("fermat", (2,)), 1),
            (atomic("chain", (3, 4)), 1),
            (atomic("chain", (3, 4, 2)), 3),
            (assemble(("fermat", (4,)), ("chain", (2, 2))), 3),
        ],
    )
    def test_untheorized_targets_are_refused(self, W, i):
        with pytest.raises(UnsupportedByTheorem):
            sg_four_point(W, i)

    def test_out_of_range_index_is_refused(self):
        with pytest.raises(WrongConfiguration):
            sg_four_point(atomic("fermat", (5,)), 2)
        with pytest.raises(WrongConfiguration):
            sg_four_point(atomic("fermat", (5,)), 0)

    @pytest.mark.parametrize(
        "W,i",
        [
            (atomic("fermat", (3,)), 1),
            (atomic("fermat", (7,)), 1),
            (atomic("chain", (3, 4)), 2),
            (atomic("chain", (2, 2, 3)), 3),
            (atomic("loop", (3, 3)), 1),
            (atomic("loop", (2, 3)), 2),
            (atomic("loop", (2, 3, 4)), 3),
            (atomic("loop", (2, 3, 2)), 1),
            (assemble(("fermat", (5,)), ("loop", (3, 3))), 2),
        ],
    )
    def test_mirror_identity_on_samples(self, W, i):
        # The two sides are computed by disjoint machinery; their match is
        # the mirror identity itself.
        assert fjrw_four_point(W, i) == -sg_four_point(W, i)
