"""Tests for the four-point A-model correlator engine."""

import itertools
from fractions import Fraction

import pytest

from lgmirror.amodel import (
    SYMMETRIC_LOOP_SEED,
    b2_correlator,
    boundary_decorations,
    four_point_report,
    guere_correlator,
    wdvv_case1,
    wdvv_case2,
    _final_type_sectors,
)
from lgmirror.errors import (
    ConcavityViolated,
    InconsistentInput,
    UnsupportedByTheorem,
    WrongConfiguration,
)
from lgmirror.groups import identity
from lgmirror.mirror import admissible_target
from lgmirror.poly import AtomicSummand, InvertiblePolynomial
from lgmirror.selection import line_bundle_degrees

from support import from_dense, grading_element, reassemble

F = Fraction


def atomic(kind, a):
    n = len(a)
    raw = reassemble([AtomicSummand(kind, tuple(a), tuple(range(n)))], n)
    return from_dense(raw)


# ------------------------------------------------------------ worked values


@pytest.mark.parametrize("a", range(3, 10))
def test_fermat_values(a):
    W = InvertiblePolynomial.from_string(f"x1^{a}")
    r = four_point_report(admissible_target(W, 1))
    assert r.value == F(1, a) == W.q[0]
    assert r.method == "concave"


def test_chain_value_and_node_phases():
    W = atomic("chain", (3, 4))
    r = four_point_report(admissible_target(W, 2))
    assert r.value == W.q[1] == F(1, 4)
    assert r.method == "concave"
    # node sector on the separating graph {theta,theta | S,H} has last
    # phase 1 - 3*q_N; on the two mixed graphs it is 0
    q = W.q[1]
    assert r.decorations[0].gamma_plus.phases[1] == 1 - 3 * q
    assert r.decorations[1].gamma_plus.phases[1] == 0
    assert r.decorations[2].gamma_plus.phases[1] == 0


def test_final_type_line_bundle_degrees():
    """The degrees, and the sector phases they come from: integer shifts
    of q_i + c·ρ_t^(i), with c = 1 for x_t, c = −2 for M_t/x_t², and of
    1 − q_i for top."""
    for expr, t in [("x1^3*x2 + x2^4", 2), ("x1^2*x2 + x2^4*x1", 2), ("x1^5", 1),
                    ("x1^2*x2 + x2^3*x1", 2)]:
        W = InvertiblePolynomial.from_string(expr)
        sectors = _final_type_sectors(W, t)
        degs = line_bundle_degrees(W, sectors)
        assert degs == [W.D * (-1 - (1 if i == t - 1 else 0)) for i in range(W.N)]
        theta, _, s, h = sectors
        inverse = W.inverse_exponents()
        for i in range(W.N):
            rho = inverse[i][t - 1]
            assert (theta.phases[i] - (W.q[i] + rho)).denominator == 1
            assert (s.phases[i] - (W.q[i] - 2 * rho)).denominator == 1
            assert (h.phases[i] - (1 - W.q[i])).denominator == 1


def test_loop_concave_values():
    assert four_point_report(admissible_target(atomic("loop", (2, 4)), 2)).value == F(1, 7)
    assert four_point_report(admissible_target(atomic("loop", (2, 3)), 2)).value == F(1, 5)
    W = atomic("loop", (2, 3, 4))
    assert four_point_report(admissible_target(W, 3)).value == W.q[2] == F(4, 25)


def test_guere_values():
    W = atomic("loop", (2, 3, 2))
    r = four_point_report(admissible_target(W, 3))
    assert r.value == W.q[2] == F(4, 13)
    assert r.method == "guere"
    W = atomic("loop", (3, 2, 2))
    sectors = _final_type_sectors(W, 3)
    decorations = boundary_decorations(W, sectors)
    assert guere_correlator(W, sectors, decorations, 3) == W.q[2] == F(5, 13)


def test_guere_wrong_polynomial():
    """The limit formula holds only for a loop of N >= 3 ending in a
    square with narrow insertions; anything else is refused."""
    def final_type(W, t):
        sectors = _final_type_sectors(W, t)
        return sectors, boundary_decorations(W, sectors)

    W = atomic("chain", (3, 2))
    with pytest.raises(WrongConfiguration, match="^expected a single loop$"):
        guere_correlator(W, *final_type(W, 2), 2)
    W = atomic("loop", (3, 2))
    with pytest.raises(WrongConfiguration,
                       match=r"^expected a loop with final exponent 2 and N >= 3$"):
        guere_correlator(W, *final_type(W, 2), 2)
    W = atomic("loop", (2, 3, 2))
    sectors, decorations = final_type(W, 3)
    with pytest.raises(WrongConfiguration, match="^broad insertion sector$"):
        guere_correlator(W, [identity(W)] + list(sectors[1:]), decorations, 3)


def test_guere_nonconcave_pair():
    W = atomic("loop", (2, 3, 2))
    decs = boundary_decorations(W, _final_type_sectors(W, 3))
    assert decs[0].pair(2) == (0, -2)


def test_b2_refuses_guere_configuration():
    W = atomic("loop", (2, 3, 2))
    with pytest.raises(ConcavityViolated, match="sections"):
        b2_correlator(W, _final_type_sectors(W, 3), 3)


def test_b2_refuses_broad_insertion():
    W = atomic("loop", (2, 2))
    with pytest.raises(ConcavityViolated, match="broad"):
        b2_correlator(W, _final_type_sectors(W, 2), 2)


def test_b2_refuses_wrong_degrees():
    # three identity-sector insertions padded with the top: degrees are
    # not the (-1, ..., -2) footprint
    W = InvertiblePolynomial.from_string("x1^5")
    J = grading_element(W)
    with pytest.raises(ConcavityViolated, match="degree"):
        b2_correlator(W, [J, J, J, J], 1)


# ------------------------------------------------------------------ wdvv


def test_wdvv_case1_normalization():
    W = atomic("loop", (2, 2))
    x, rest = wdvv_case1(W, SYMMETRIC_LOOP_SEED)
    assert SYMMETRIC_LOOP_SEED == F(2, 27)
    assert x == F(1, 3)
    assert rest == (F(-2, 3), F(2, 9), F(-1, 9))


def test_wdvv_case1_zero_seed():
    W = atomic("loop", (2, 2))
    assert wdvv_case1(W, F(0)) == (F(0), (F(0), F(0), F(0)))


def test_wdvv_case1_bad_seed():
    W = atomic("loop", (2, 2))
    with pytest.raises(InconsistentInput):
        wdvv_case1(W, F(1, 2))
    with pytest.raises(InconsistentInput):
        wdvv_case1(W, F(-2, 27))


def test_wdvv_case1_wrong_polynomial():
    with pytest.raises(WrongConfiguration):
        wdvv_case1(atomic("loop", (2, 3)), F(2, 27))
    with pytest.raises(WrongConfiguration):
        wdvv_case1(atomic("loop", (2, 2, 2)), F(2, 27))


@pytest.mark.parametrize("a", [3, 4, 5, 6])
@pytest.mark.parametrize("rows, o, t", [("x1^{a}*x2 + x2^2*x1", 1, 2), ("x2^2*x1 + x1^{a}*x2", 1, 2),
                                        ("x2^{a}*x1 + x1^2*x2", 2, 1), ("x1^2*x2 + x2^{a}*x1", 2, 1)],
                         ids=["in_order", "swapped", "relabelled", "relabelled_swapped"])
def test_wdvv_case2_values(a, rows, o, t):
    """The seed's variable x_o is read off the summand, so every labelling
    and row order of x_o^a*x_t + x_t^2*x_o gives the same value."""
    W = InvertiblePolynomial.from_string(rows.format(a=a))
    assert wdvv_case2(W, t) == (a - 1) * W.q[o - 1] == W.q[t - 1]


def test_wdvv_case2_wrong_polynomial():
    with pytest.raises(WrongConfiguration):
        wdvv_case2(atomic("loop", (2, 2)), 2)
    with pytest.raises(WrongConfiguration):
        wdvv_case2(atomic("chain", (3, 2)), 2)


# ------------------------------------------------------- every presentation


def _loop_presentations(n):
    """Every loop on x1..xn with exponents 2–4, each once, in every row
    order: (text, {variable: exponent})."""
    for exps in itertools.product(range(2, 5), repeat=n):
        for rest in itertools.permutations(range(2, n + 1)):
            cycle = (1, *rest)  # x1 first: each cycle once, not once per rotation
            a = dict(zip(cycle, exps))
            rows = [f"x{v}^{a[v]}*x{w}" for v, w in zip(cycle, cycle[1:] + cycle[:1])]
            for order in itertools.permutations(rows):
                yield " + ".join(order), a


@pytest.mark.parametrize("n", [3, 4])
def test_a_side_routes_on_every_presentation(n):
    """The limit formula at a square and the concave formula elsewhere give
    q_t on every loop, whatever its labels and row order: x_p, which points
    at x_t, is read off the summand (on x1^2*x3 + x3^2*x2 + x2^3*x1 at t = 1
    it is x2, not x3)."""
    wrong = []
    for text, a in _loop_presentations(n):
        W = InvertiblePolynomial.from_string(text)
        for t, a_t in a.items():
            sectors = _final_type_sectors(W, t)
            decorations = boundary_decorations(W, sectors)
            try:
                if a_t == 2:
                    value = guere_correlator(W, sectors, decorations, t)
                else:
                    value = b2_correlator(W, sectors, t, decorations)
            except (ConcavityViolated, WrongConfiguration) as exc:
                value = exc
            if value != W.q[t - 1]:
                wrong.append((text, t, str(value)))
    assert wrong == []


# ------------------------------------------------------------- dispatching


def test_dispatch_methods():
    assert four_point_report(admissible_target(atomic("loop", (2, 2)), 1)).method == "wdvv1"
    assert four_point_report(admissible_target(atomic("loop", (3, 2)), 2)).method == "wdvv2"
    assert four_point_report(admissible_target(atomic("loop", (3, 2)), 1)).method == "concave"
    assert four_point_report(admissible_target(atomic("loop", (2, 2, 2, 2)), 3)).method == "guere"
    assert four_point_report(admissible_target(atomic("chain", (2, 2, 3)), 3)).method == "concave"


def test_direct_sum_factorization():
    W = InvertiblePolynomial.from_string("x1^3 + x2^4 + x3^2*x4 + x4^3*x3")
    for i in (1, 2, 3, 4):
        assert four_point_report(admissible_target(W, i)).value == W.q[i - 1]
    # the loop variable of exponent 3 becomes the last one after rotation
    assert four_point_report(admissible_target(W, 4)).method == "concave"
    # the exponent-2 loop variable routes through the reconstruction
    assert four_point_report(admissible_target(W, 3)).method == "wdvv2"


def test_unsupported_variables():
    with pytest.raises(UnsupportedByTheorem):
        admissible_target(InvertiblePolynomial.from_string("x1^2"), 1)
    with pytest.raises(UnsupportedByTheorem):
        admissible_target(atomic("chain", (3, 4)), 1)  # not the final variable
    with pytest.raises(UnsupportedByTheorem):
        admissible_target(InvertiblePolynomial.from_string("x1^2*x2 + x2^2"), 2)


def test_bad_target_index():
    with pytest.raises(WrongConfiguration):
        admissible_target(InvertiblePolynomial.from_string("x1^5"), 0)
    with pytest.raises(WrongConfiguration):
        admissible_target(InvertiblePolynomial.from_string("x1^5"), 2)


# ------------------------------------------------------------- decorations


def test_decoration_bookkeeping():
    W = atomic("loop", (2, 3, 4))
    sectors = _final_type_sectors(W, 3)
    smooth = line_bundle_degrees(W, sectors)
    decs = boundary_decorations(W, sectors)
    assert len(decs) == 3
    assert [d.splitting for d in decs] == [
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
    ]
    for d in decs:
        for i in range(W.N):
            node = 1 if d.gamma_plus.phases[i] != 0 else 0
            assert d.ell_plus[i] + d.ell_minus[i] == F(smooth[i], W.D) - node
            gp = d.gamma_plus.phases[i]
            gm = (d.gamma_plus ** -1).phases[i]
            assert gp * (1 - gp) == gm * (1 - gm)


def test_decorations_need_four_sectors():
    W = InvertiblePolynomial.from_string("x1^5")
    with pytest.raises(WrongConfiguration):
        boundary_decorations(W, _final_type_sectors(W, 1)[:3])


# ------------------------------------------------------- identity property


def chain_tuples(max_n, amax):
    for n in range(2, max_n + 1):
        for a in itertools.product(range(2, amax + 1), repeat=n):
            if a[-1] >= 3:
                yield a


def loop_tuples(max_n, amax):
    seen = set()
    for n in range(2, max_n + 1):
        for a in itertools.product(range(2, amax + 1), repeat=n):
            key = atomic("loop", a).summands[0].exponents
            if key not in seen:
                seen.add(key)
                yield key


@pytest.mark.parametrize("a", sorted(chain_tuples(3, 4)))
def test_chain_identity(a):
    W = atomic("chain", a)
    r = four_point_report(admissible_target(W, W.N))
    assert r.value == W.q[-1] == F(1, a[-1])
    assert r.method == "concave"


@pytest.mark.parametrize("a", sorted(loop_tuples(3, 4)))
def test_loop_identity_all_targets(a):
    W = atomic("loop", a)
    for i in range(1, W.N + 1):
        assert four_point_report(admissible_target(W, i)).value == W.q[i - 1]
