"""Tests for the Brieskorn-lattice reduction and the B-model correlators."""

import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

from lgmirror import bmodel, cli
from lgmirror.amodel import four_point_report
from lgmirror.bmodel import (
    GoodBasisReport,
    LatticeElement,
    PairingClass,
    brieskorn_reduce,
    good_basis_check,
    perturbative_expand,
    sg_four_point,
)
from lgmirror.errors import UnsupportedByTheorem, WrongConfiguration
from lgmirror.jacobi import JacobiRing, ring_of
from lgmirror.linalg import invert, solve
from lgmirror.mirror import admissible_target, final_type_insertions, sector_of
from lgmirror.poly import AtomicSummand

from support import criteria_atomics, dense_inverse, from_dense, pairs, quotients, reassemble, slice_divide, values

F = Fraction


def atomic(kind, a):
    n = len(a)
    raw = reassemble([AtomicSummand(kind, tuple(a), tuple(range(n)))], n)
    return from_dense(raw)


def assemble(*pieces):
    """Direct sum of atomic pieces on consecutive variables."""
    summands = []
    offset = 0
    for kind, a in pieces:
        vs = tuple(range(offset, offset + len(a)))
        summands.append(AtomicSummand(kind, tuple(a), vs))
        offset += len(a)
    return from_dense(reassemble(summands, offset))


def weights_oracle(W):
    """Solve E q = (1, ..., 1) directly."""
    return solve([list(row) for row in W.E], [F(1)] * W.N)


def element_weight(f, terms):
    """Common weight of the terms {z: {monomial: coefficient}}, wt(z) = 1
    and wt([d^Nx]) = sum(q_i); None when they are zero or mix weights."""
    ring = ring_of(f)
    offset = sum(f.q, F(0))
    seen = {k + ring.wt(m) + offset for k, poly in terms.items() for m in poly}
    return seen.pop() if len(seen) == 1 else None


def shift(terms, dz):
    """terms·z^dz."""
    return {k + dz: poly for k, poly in terms.items()}


def plus(a, b):
    """a + b, level by level, cancelled coefficients kept."""
    terms = {k: dict(poly) for k, poly in a.items()}
    for k, poly in b.items():
        level = terms.setdefault(k, {})
        for m, c in poly.items():
            level[m] = level.get(m, 0) + c
    return terms


def nonzero(terms):
    """terms without its zero coefficients and the levels they empty."""
    return {k: level for k, poly in terms.items()
            if (level := {m: c for m, c in poly.items() if c != 0})}


def lift(terms):
    """{z: {monomial: coefficient}} as the pair levels `brieskorn_reduce` takes."""
    return {k: pairs(poly) for k, poly in terms.items()}


def reduced(f, levels, steps=None):
    """`brieskorn_reduce` of the pair levels in f's ring, its levels read as
    ``Fraction``s; a level holds no zero coefficient."""
    return {k: values(p) for k, p in brieskorn_reduce(ring_of(f), levels, steps).items()}


def one(n):
    return LatticeElement({0: {(0,) * n: F(1)}})


# ------------------------------------------------------------ lattice elements


class TestLatticeElement:
    def test_coefficient(self):
        e = LatticeElement({-2: {(3,): F(1, 2)}})
        assert e.coefficient(-2, (3,)) == F(1, 2)
        assert e.coefficient(0, (3,)) == 0

    def test_shift(self):
        assert shift({0: {(1, 0): F(2)}}, -1) == {-1: {(1, 0): F(2)}}


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
        assert reduced(f, {0: {(a,): (1, 1)}}) == {1: {(0,): F(-1, a)}}

    def test_chain_final_monomial(self):
        # W = x^3 y + y^4, f = W^t = x^3 + x y^4: the second monomial of f
        # is (1/4) y d/dy(f), hence [x y^4] = -(z/4)[1] = -q_2(W) z [1].
        W = atomic("chain", (3, 4))
        f = W.transpose()
        m2 = tuple(W.E[j][1] for j in range(2))
        assert m2 == (1, 4)
        assert reduced(f, {0: {m2: (1, 1)}}) == {1: {(0, 0): F(-1, 4)}}
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
            assert reduced(f, {0: {mi: (1, 1)}}) == {1: {(0,) * n: -q[i]}}

    def test_jacobian_multiple_with_constant_quotient_vanishes(self):
        # x^{a-1} dx = (1/a) df is killed outright: d(1/a) = 0.
        f = atomic("fermat", (5,))
        assert reduced(f, {0: {(4,): (1, 1)}}) == {}

    def test_window_overflow_raises(self):
        # Reducing x^14 in the x^4 lattice climbs three z-levels.
        f = atomic("fermat", (4,))
        with pytest.raises(WrongConfiguration):
            reduced(f, {0: {(14,): (1, 1)}})


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
        z0 = reduced(f, {0: {m: (1, 1)}}).get(0, {})
        assert z0 == ring.monomial_of(ring.reduce(m))

    @settings(deadline=None)
    @given(data=st.data())
    def test_reduction_is_linear(self, data):
        f = data.draw(st.sampled_from(REDUCTION_RINGS))
        ring = JacobiRing(f)
        monos = st.tuples(*(st.integers(0, 5) for _ in range(f.N))).filter(
            lambda m: ring.wt(m) <= 2
        )
        a = {0: {data.draw(monos): data.draw(st.integers(-3, 3))}}
        b = {0: {data.draw(monos): data.draw(st.integers(-3, 3))}}
        lhs = reduced(f, lift(plus(a, b)))
        rhs = plus(reduced(f, lift(a)), reduced(f, lift(b)))
        assert lhs == nonzero(rhs)

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
        out = reduced(f, {0: {m: (1, 1)}})
        if out:
            assert element_weight(f, out) == element_weight(f, {0: {m: 1}})

    def test_reduction_commutes_with_z_shift(self):
        f = atomic("loop", (2, 3))
        e = {0: {(2, 1): F(3), (1, 3): F(-1, 2)}}
        down = reduced(f, lift(shift(e, -2)))
        assert down == shift(reduced(f, lift(e)), -2)

    def test_basis_elements_are_fixed(self):
        for f in REDUCTION_RINGS:
            ring = JacobiRing(f)
            for m in ring.basis.monomials:
                assert reduced(f, {-1: {m: (1, 1)}}) == {-1: {m: F(1)}}


class TestElementWeight:
    def test_homogeneous_weight(self):
        f = atomic("fermat", (5,))
        assert element_weight(f, {1: {(2,): F(7)}}) == 1 + F(2, 5) + F(1, 5)

    def test_mixed_weights_return_none(self):
        f = atomic("fermat", (5,))
        assert element_weight(f, {0: {(0,): F(1), (1,): F(1)}}) is None

    def test_zero_returns_none(self):
        assert element_weight(atomic("fermat", (3,)), {}) is None


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
        # Dual route for the integer lattice walk: each class k must
        # agree with the Fraction-based solve, and each excluded exponent
        # sum must genuinely have no integral solution.
        report = good_basis_check(f)
        assert report.passed
        for cls in report.classes:
            assert exact_pairing_solution(f, report.monomial_order, cls.exponent_sum) == cls.k
        ring = JacobiRing(f)
        admissible = {cls.exponent_sum for cls in report.classes}
        seen = 0
        for r, rp in itertools.combinations_with_replacement(
            ring.basis.monomials, 2
        ):
            m = tuple(a + b for a, b in zip(r, rp))
            if m not in admissible and seen < 40:
                assert exact_pairing_solution(f, report.monomial_order, m) is None
                seen += 1

    def test_excluded_chain_pattern_never_comes_from_basis_pairs(self):
        # k = (2, 0, 2) solves k . E = m + 2 for m = (4, 0, 4) over the
        # transpose of the chain (3, 3, 3) but lies outside the allowed
        # families; no pair of standard-basis monomials produces that m.
        f = atomic("chain", (3, 3, 3)).transpose()
        m = (4, 0, 4)
        report = good_basis_check(f)
        assert exact_pairing_solution(f, report.monomial_order, m) == (2, 0, 2)
        assert all(cls.exponent_sum != m for cls in report.classes)

    def test_non_integral_solution_is_none(self):
        f = atomic("fermat", (5,))
        report = good_basis_check(f)
        assert exact_pairing_solution(f, report.monomial_order, (1,)) is None
        assert all(cls.exponent_sum != (1,) for cls in report.classes)

    def test_multiple_summands_are_refused(self):
        W = assemble(("fermat", (3,)), ("fermat", (4,)))
        with pytest.raises(WrongConfiguration):
            good_basis_check(W)


def test_every_basis_pair_is_classified_by_the_exact_solver():
    """On the criterion 1–3 transposes with μ ≤ 64, every unordered pair of
    basis monomials is classified by its sum m = r + r′ with the exact
    solver of k . E = m + 2, which knows nothing of mirror sectors: the sums
    with an integral k are exactly the report's classes, with their pair
    counts and k, and every other pair is excluded."""
    checked = 0
    for W in criteria_atomics():
        f = W.transpose()
        basis = ring_of(f).basis.monomials
        if len(basis) > 64:
            continue
        report = good_basis_check(f)
        sums = Counter(tuple(map(add, r, rp))
                       for r, rp in itertools.combinations_with_replacement(basis, 2))
        solve_k = pairing_solver(f, report.monomial_order)
        solution = {m: solve_k(m) for m in sums}
        integral = {m: n for m, n in sums.items() if solution[m] is not None}
        assert integral == {c.exponent_sum: c.pair_count for c in report.classes}
        assert [c.k for c in report.classes] == [solution[c.exponent_sum] for c in report.classes]
        assert report.excluded_pairs == sums.total() - sum(integral.values())
        checked += 1
    assert checked > 100


def pairing_solver(f, order):
    """m ↦ the k with k . E = m + 2, E's rows taken in ``order``, or None
    when k is not integral.  The transposed system is inverted once, by
    Fraction elimination, and scaled to integers over the lcm d of the
    inverse's denominators: k is integral exactly when d divides each
    entry of d·k."""
    rows = [f.E[r] for r in order]
    inv = invert([[row[j] for row in rows] for j in range(f.N)])
    d = math.lcm(*(v.denominator for row in inv for v in row))
    scaled = [[int(v * d) for v in row] for row in inv]

    def solution(m):
        m2 = [mj + 2 for mj in m]
        dk = [sum(map(mul, row, m2)) for row in scaled]
        if any(x % d for x in dk):
            return None
        return tuple(x // d for x in dk)
    return solution


def exact_pairing_solution(f, order, m):
    return pairing_solver(f, order)(m)


def intrinsic_order(f):
    """Brute force over row permutations: each row's linear variable is
    the power variable of the row before it; a chain starts at its pure
    power, a loop at the row whose power variable is smallest."""
    power = [max(range(f.N), key=row.__getitem__) for row in f.E]
    linear = [next((j for j, e in enumerate(row) if e == 1), None) for row in f.E]
    linked = [
        p for p in itertools.permutations(range(f.N))
        if all(linear[b] == power[a] for a, b in zip(p, p[1:]))
    ]
    heads = [p for p in linked if linear[p[0]] is None]
    return list(heads[0] if heads else min(linked, key=lambda p: power[p[0]]))


def families_oracle(kind, n):
    ones = (1,) * n
    if kind == "chain":
        return {ones} | {(1,) * (n - 2 * t) + (0, 2) * t for t in range(1, n // 2 + 1)}
    if kind == "loop" and n % 2 == 0:
        return {ones, (2, 0) * (n // 2), (0, 2) * (n // 2)}
    return {ones}


def good_basis_oracle(f):
    """Reference certificate: count every basis pair's exponent sum, then
    solve k . E = m + 2 over the rationals for each sum."""
    kind = f.summands[0].kind
    basis = JacobiRing(f).basis.monomials
    order = intrinsic_order(f)
    columns = [[f.E[r][j] for r in order] for j in range(f.N)]   # E^t, rows ordered
    q = weights_oracle(f)
    charge = sum((1 - 2 * qi for qi in q), F(0))
    sums = Counter(
        tuple(a + b for a, b in zip(r, rp))
        for r, rp in itertools.combinations_with_replacement(basis, 2)
    )
    classes, excluded = [], 0
    for m in sorted(sums):
        k = solve(columns, [mj + 2 for mj in m])
        if any(v.denominator != 1 for v in k):
            excluded += sums[m]
            continue
        k = tuple(int(v) for v in k)
        degree = sum((mj * qj for mj, qj in zip(m, q)), F(0))
        classes.append(
            PairingClass(m, sums[m], k, k in families_oracle(kind, f.N), degree == charge)
        )
    return GoodBasisReport(
        kind=kind,
        mu=len(basis),
        monomial_order=tuple(order),
        checked_pairs=sum(sums.values()),
        excluded_pairs=excluded,
        classes=tuple(classes),
        families_seen=tuple(sorted({c.k for c in classes})),
    )


SMALL_ATOMICS = [
    atomic(kind, a)
    for kind in ("chain", "loop")
    for n in (2, 3)
    for a in itertools.product(range(2, 5), repeat=n)
]


def rows_reversed(f):
    """f with the rows of E in reverse order: the same polynomial, other heads."""
    return pytest.param(from_dense(f.E[::-1]),
                        id="rows reversed: " + f.to_string())


# N = 4 pair counts, with larger exponents on a chain with exclusions and
# on a loop, and the heads of a row-permuted input
PERMUTED_AND_LARGER = [
    *(rows_reversed(f.transpose()) for f in SMALL_ATOMICS),
    *(pytest.param(f, id=f.to_string())
      for f in (atomic("loop", (2, 3, 2, 3)).transpose(), atomic("chain", (2, 2, 3, 2)).transpose(),
                atomic("chain", (4, 3, 4, 5)).transpose(), atomic("loop", (3, 4, 3, 4)).transpose())),
]


@pytest.mark.parametrize(
    "f",
    [f.transpose() for f in SMALL_ATOMICS]
    + SMALL_ATOMICS
    + [atomic("fermat", (a,)) for a in (2, 3, 5, 8, 13)]
    + PERMUTED_AND_LARGER,
    ids=lambda f: f.to_string(),
)
def test_good_basis_matches_the_pair_counting_oracle(f):
    assert good_basis_check(f) == good_basis_oracle(f)


def shuffled(f, rng):
    """The atomic f on a random permutation of its variables, its monomials
    in random order."""
    s = f.summands[0]
    perm = rng.sample(range(f.N), f.N)
    raw = reassemble([AtomicSummand(s.kind, s.exponents, tuple(perm[v] for v in s.variables))], f.N)
    rng.shuffle(raw)
    return from_dense(raw)


def sector_cases():
    """The transposes of the criteria atomics, each on shuffled variables,
    and of loop(5⁴) and loop(10³)."""
    rng = random.Random("sector steps")
    for W in criteria_atomics():
        yield shuffled(W.transpose(), rng)
    yield atomic("loop", (5, 5, 5, 5)).transpose()
    yield atomic("loop", (10, 10, 10)).transpose()


def test_one_integer_names_each_mirror_sector():
    """Row v of D·E_f⁻¹ is t_v times row v₁ mod D, so the mirror sector of
    every basis monomial r is T(r)·ρ_{v₁} with the one integer
    T(r) = Σ_v (r_v + 1)·t_v mod D: it equals `sector_of(fᵗ, r)`."""
    monomials = 0
    for f in sector_cases():
        D, t = f.D, bmodel._sector_steps(f)
        first = dense_inverse(f)[f.summands[0].variables[0]]
        ft = f.transpose()
        for r in ring_of(f).basis.monomials:
            T = sum((e + 1) * tv for e, tv in zip(r, t)) % D
            assert tuple(T * x % D for x in first) == sector_of(ft, r).num, f.to_string()
            monomials += 1
    assert monomials == 71_606


def test_a_wrong_sector_step_is_refused(monkeypatch):
    """`good_basis_check` checks every t_v against the columns of D·E_f⁻¹: a
    t with one sign flipped, where the flip changes it mod D, raises."""
    flips = 0
    for f in sector_cases():
        t = bmodel._sector_steps(f)
        for v, tv in enumerate(t):
            if 2 * tv % f.D == 0:
                continue
            bad = t[:v] + [-tv % f.D] + t[v + 1:]
            monkeypatch.setattr(bmodel, "_sector_steps", lambda _, bad=bad: bad)
            with pytest.raises(RuntimeError, match="sector generator"):
                good_basis_check(f)
            monkeypatch.undo()
            flips += 1
    assert flips == 2_135


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

    @pytest.mark.parametrize("z_min", [bmodel.Z_MIN, -2])
    def test_the_refusal_names_the_cap(self, z_min, monkeypatch):
        """The order cap is -Z_MIN, read off the z-window, and the refusal
        names it from there."""
        monkeypatch.setattr(bmodel, "Z_MIN", z_min)
        with pytest.raises(WrongConfiguration, match=f"up to order {-z_min} only"):
            perturbative_expand(atomic("fermat", (3,)), -z_min + 1)

    @pytest.mark.parametrize("W,i", SERIES_CASES)
    def test_first_order_leaves_zeta_untouched(self, W, i):
        # phi_a / z is already reduced, so zeta_(<=1) = [d^Nx].
        f = W.transpose()
        state = perturbative_expand(f, 1)
        assert set(state.zeta) == {()}
        mu = len(state.basis)
        for a in range(mu):
            entry = state.jfunc[(a,)]
            assert entry.terms == {-1: {state.basis[a]: F(1)}}

    @pytest.mark.parametrize("W,i", SERIES_CASES)
    def test_jfunc_lives_below_z0(self, W, i):
        state = perturbative_expand(W.transpose(), 3)
        for smono, entry in state.jfunc.items():
            if smono:
                assert all(k < 0 for k in entry.terms)

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
        assert value == sg_four_point(admissible_target(W, i))

    @pytest.mark.parametrize("W,i", SERIES_CASES + [(atomic("loop", (3, 3)), 1)])
    def test_the_series_solves_its_defining_equation(self, W, i):
        # exp((F-f)/z) zeta = J order by order: with zeta's own entry
        # included, each s-monomial's coefficient reduces to J's, through
        # one `brieskorn_reduce` of its pair levels.  loop(3, 3) has a zeta
        # correction, at (top, top).
        f = W.transpose()
        state = perturbative_expand(f, 3)
        for k in range(1, 4):
            for smono in itertools.combinations_with_replacement(range(len(state.basis)), k):
                terms = {}
                for sub, entry in state.zeta.items():
                    if not Counter(sub) <= Counter(smono):
                        continue
                    rest = Counter(smono) - Counter(sub)
                    mono = [0] * f.N
                    for r, mult in rest.items():
                        mono = [a + mult * b for a, b in zip(mono, state.basis[r])]
                    weight = math.prod(math.factorial(mult) for mult in rest.values())
                    for z, poly in entry.terms.items():
                        level = terms.setdefault(z - rest.total(), {})
                        for m, c in poly.items():
                            key = tuple(map(add, m, mono))
                            level[key] = level.get(key, 0) + c / weight
                expected = state.jfunc[smono].terms if smono in state.jfunc else {}
                assert reduced(f, lift(terms)) == expected

    @pytest.mark.parametrize("W,i", SERIES_CASES + [(atomic("loop", (3, 3)), 1)])
    def test_stored_entries_are_reduced_levels(self, W, i):
        # the only builder stores what `brieskorn_reduce` returned: no
        # empty level, no zero coefficient, only `Fraction`s, and every
        # z-power inside the window
        state = perturbative_expand(W.transpose(), 3)
        for entry in itertools.chain(state.zeta.values(), state.jfunc.values()):
            assert entry.terms
            for z, poly in entry.terms.items():
                assert bmodel.Z_MIN <= z <= bmodel.Z_MAX
                assert poly and all(type(c) is Fraction and c != 0 for c in poly.values())

    def test_zeta_corrections_appear_only_at_the_top_weight(self):
        # For the symmetric loop the only positive z-power at quadratic
        # order comes from top*top (weight 2 = twice the central charge).
        f = atomic("loop", (3, 3))
        state = perturbative_expand(f, 2)
        ring = JacobiRing(f)
        top = ring.basis.index[ring.top]
        quad = [sm for sm in state.zeta if len(sm) == 2]
        assert quad == [(top, top)]


# ------------------------------------------------ which certificate divides


def walk_and_slice(monkeypatch, run, polys):
    """``run()`` under the walk's `JacobiRing.divide`, then under the
    whole-slice solve `slice_divide`, with the number of divisions whose
    quotients the two gave differently.  ``run`` divides in the rings
    `ring_of` keeps on ``polys``."""
    walk = JacobiRing.divide
    walked = run()
    differs = []
    poly_of = {ring_of(f): f for f in polys}

    def reference(R, p):
        nf, quot = slice_divide(poly_of[R], R, p)
        differs.append(quotients(R, quot) != quotients(R, walk(R, p)[1]))
        return nf, quot

    monkeypatch.setattr(JacobiRing, "divide", reference)
    return walked, run(), sum(differs)


def criteria_targets():
    """(W, i) of the criterion 1–3 suites."""
    return ((W, W.N) for W in criteria_atomics())


def test_trace_steps_do_not_depend_on_the_division(monkeypatch):
    """The reductions behind `sg_four_point` and the `--trace` lines record
    the same chunks, normal forms and pushes, in the same order, under the
    walk and under the whole-slice solve: their chunks have degree ≤ 1 and
    every qᵢ < ½, so no slice they reach has a syzygy column and the
    quotients are unique."""
    reductions = []
    for W, i in criteria_targets():
        piece, local = admissible_target(W, i)
        x, s, m = final_type_insertions(piece, local)
        f = piece.transpose()
        if ring_of(f).mu > 64:
            continue
        for z, e in ((0, tuple(map(add, x, x))), (0, tuple(map(add, x, s))), (-3, m), (0, m)):
            reductions.append((f, z, e))

    def run():
        out = []
        for f, z, e in reductions:
            steps = []
            brieskorn_reduce(ring_of(f), {z: {e: (1, 1)}}, steps)
            out.append([(step["z"], *(list(step[key].items())
                                      for key in ("chunk", "normal_form", "pushed")))
                        for step in steps])
        return out

    walked, sliced, differs = walk_and_slice(monkeypatch, run, [f for f, _, _ in reductions])
    assert len(reductions) > 400
    assert walked == sliced
    assert differs == 0


def test_series_does_not_depend_on_the_certificate(monkeypatch):
    """At order 3 some slices have a syzygy column, so the walk and the
    whole-slice solve return different quotients for some divisions; ζ and
    J come out the same all the same."""
    polys = [W.transpose() for W, _ in SERIES_CASES]

    def run():
        return [perturbative_expand(f, 3) for f in polys]

    walked, sliced, differs = walk_and_slice(monkeypatch, run, polys)
    for a, b in zip(walked, sliced, strict=True):
        assert a.zeta == b.zeta
        assert a.jfunc == b.jfunc
    assert differs > 0


def test_four_point_is_the_collapsed_reduction():
    """`sg_four_point` reads its value off one `brieskorn_reduce` of
    [M_i z^-3], the reduction ``--trace`` records from z^0.  On every
    criterion 1–3 target that reduction collapses to the z^-2 [d^Nx]
    coefficient `sg_four_point` returns, and both flat-coordinate products
    reduce to nonpositive z-powers."""
    targets = 0
    for W, i in criteria_targets():
        target = admissible_target(W, i)
        x, s, m = final_type_insertions(*target)
        f = target.piece.transpose()
        for right in (x, s):
            product = tuple(map(add, x, right))
            assert all(k <= 0 for k in reduced(f, {0: {product: (1, 1)}}))
        assert reduced(f, {-3: {m: (1, 1)}}) == {-2: {(0,) * f.N: sg_four_point(target)}}
        targets += 1
    assert targets > 400


class TestPairLevels:
    def test_a_nonzero_level_outside_the_window_is_refused(self):
        ring = ring_of(atomic("fermat", (4,)))
        for k in (bmodel.Z_MIN - 1, bmodel.Z_MAX + 1):
            with pytest.raises(WrongConfiguration, match="outside the supported window"):
                brieskorn_reduce(ring, {k: {(0,): (1, 2)}})

    @pytest.mark.parametrize("k", [bmodel.Z_MIN, bmodel.Z_MAX], ids=["lowest", "highest"])
    def test_a_level_at_the_window_edge_is_kept(self, k):
        # the per-level check is inclusive at both ends: a basis monomial
        # at the edge comes back as it went in
        ring = ring_of(atomic("fermat", (4,)))
        assert brieskorn_reduce(ring, {k: {(2,): (1, 2)}}) == {k: {(2,): (1, 2)}}

    def test_a_cancelled_level_outside_the_window_is_ignored(self):
        ring = ring_of(atomic("fermat", (4,)))
        assert brieskorn_reduce(ring, {bmodel.Z_MIN - 1: {(1,): (0, 3)}}) == {}

    @pytest.mark.parametrize("z", [-1, bmodel.Z_MAX + 1], ids=["inside", "outside"])
    @pytest.mark.parametrize("f", REDUCTION_RINGS)
    def test_a_zero_entry_changes_no_level(self, f, z):
        # a (0, d) entry, at the level the first pass pushes into or past
        # the window, is ignored: no caller needs to drop what cancelled
        top2 = tuple(2 * a for a in ring_of(f).top)
        for m in ring_of(f).basis.monomials + (top2,):
            plain = reduced(f, {-2: {m: (-2, 3)}})
            padded = reduced(f, {-2: {m: (-2, 3)}, z: {top2: (0, 7)}})
            assert padded == plain

    @pytest.mark.parametrize("f", REDUCTION_RINGS)
    def test_the_steps_record_the_returned_levels(self, f):
        # each pass records the normal form it keeps, as ``Fraction``s in
        # monomial order, and every returned level is one pass's
        ring = ring_of(f)
        for m in ring.basis.monomials + (tuple(2 * a for a in ring.top),):
            steps = []
            out = brieskorn_reduce(ring, {-2: {m: (-2, 3)}}, steps)
            assert [s["z"] for s in steps] == sorted({s["z"] for s in steps})
            for s in steps:
                assert list(s["normal_form"]) == sorted(s["normal_form"])
                assert all(type(c) is Fraction for c in s["normal_form"].values())
            assert ({s["z"]: s["normal_form"] for s in steps if s["normal_form"]}
                    == {k: values(p) for k, p in out.items()})


# ------------------------------------------------------------ the correlator


class TestFourPoint:
    @pytest.mark.parametrize("a", range(3, 10))
    def test_fermat_values(self, a):
        W = atomic("fermat", (a,))
        assert sg_four_point(admissible_target(W, 1)) == -F(1, a)

    @pytest.mark.parametrize(
        "a", [(3, 3), (3, 4), (2, 5), (4, 3), (2, 2, 3), (3, 4, 5), (2, 2, 2, 3)]
    )
    def test_chain_final_variable(self, a):
        W = atomic("chain", a)
        n = len(a)
        assert sg_four_point(admissible_target(W, n)) == -weights_oracle(W)[n - 1]

    @pytest.mark.parametrize(
        "a", [(2, 3), (3, 3), (4, 5), (2, 3, 2), (2, 3, 4), (3, 3, 3), (2, 3, 4, 5)]
    )
    def test_loop_all_variables(self, a):
        W = atomic("loop", a)
        q = weights_oracle(W)
        for i in range(1, len(a) + 1):
            assert sg_four_point(admissible_target(W, i)) == -q[i - 1]

    def test_symmetric_loop_value(self):
        # E = [[3, 1], [1, 3]] gives q = (1/4, 1/4).
        W = atomic("loop", (3, 3))
        assert weights_oracle(W) == [F(1, 4), F(1, 4)]
        assert sg_four_point(admissible_target(W, 2)) == -F(1, 4)

    def test_cubic_fermat_is_the_degenerate_case(self):
        # M_1/x^2 = x: all three non-top insertions coincide.
        assert sg_four_point(admissible_target(atomic("fermat", (3,)), 1)) == -F(1, 3)

    def test_direct_sums_localize_to_the_summand(self):
        W = assemble(("fermat", (5,)), ("loop", (3, 3)), ("chain", (3, 4)))
        q = weights_oracle(W)
        for i in (1, 2, 3, 5):
            assert sg_four_point(admissible_target(W, i)) == -q[i - 1]

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
            admissible_target(W, i)

    def test_out_of_range_index_is_refused(self):
        with pytest.raises(WrongConfiguration):
            admissible_target(atomic("fermat", (5,)), 2)
        with pytest.raises(WrongConfiguration):
            admissible_target(atomic("fermat", (5,)), 0)

    @pytest.mark.parametrize(
        "reduced,message",
        [
            ({1: {(0, 0): (1, 1)}}, "unexpected flat-coordinate correction"),
            ({-1: {(0, 0): (1, 1)}}, "cubic term did not collapse to z^-2"),
            ({-2: {(1, 0): (1, 1)}}, "cubic term left a positive-degree part"),
        ],
    )
    def test_an_uncollapsed_reduction_is_refused(self, monkeypatch, capsys, reduced, message):
        # B rests on these collapse checks, so they must be errors that
        # survive `python -O`, and the CLI must report them with exit 2.
        monkeypatch.setattr(bmodel, "brieskorn_reduce", lambda ring, levels, steps=None: reduced)
        with pytest.raises(WrongConfiguration, match=re.escape(message)):
            sg_four_point(admissible_target(atomic("loop", (3, 3)), 1))
        argv = ["correlator", "--expr", "x1^3*x2 + x2^3*x1", "--target", "1", "--side", "B"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

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
        target = admissible_target(W, i)
        assert four_point_report(target).value == -sg_four_point(target)
