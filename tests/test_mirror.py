from fractions import Fraction

import pytest

from lgmirror import mirror
from lgmirror.amodel import _four_point_report
from lgmirror.bmodel import _sg_four_point
from lgmirror.errors import UnsupportedByTheorem
from lgmirror.jacobi import JacobiRing, ring_of
from lgmirror.poly import InvertiblePolynomial

from support import criteria_atomics, grading_element

F = Fraction


def W(text):
    return InvertiblePolynomial.from_string(text)


MIRROR_FAMILY = [
    "x1^3", "x1^7", "x1^2",
    "x1^3*x2 + x2^4",
    "x1^2*x2 + x2^5",
    "x1^2*x2 + x2^3*x3 + x3^4",
    "x1^2*x2 + x2^2*x1",
    "x1^2*x2 + x2^4*x1",
    "x1^3*x2 + x2^2*x3 + x3^2*x1",
    "x1^2*x2 + x2^2*x1 + x3^4",
    "x1^3 + x2^3*x3 + x3^3*x2",
]


def test_identity_maps_to_grading_element():
    for text in MIRROR_FAMILY:
        P = W(text)
        img = mirror.psi(P, (0,) * P.N)
        assert img.sector == grading_element(P)
        assert img.degree == 0
        assert img.broad_monomial is None


def test_fermat_top_class():
    a = 5
    P = W(f"x1^{a}")
    img = mirror.psi(P, (a - 2,))
    assert img.sector.phases == (F(a - 1, a),)
    assert img.degree == F(a - 2, a) == P.charge


def test_loop22_broad_exception():
    P = W("x1^2*x2 + x2^2*x1")
    th1 = mirror.psi(P, (1, 0))
    assert not th1.narrow
    assert th1.broad_monomial == (1, 0)
    assert th1.degree == F(1, 3)
    # x1x2 lands back in a narrow sector (J^2), no broad monomial
    jj = mirror.psi(P, (1, 1))
    assert jj.narrow
    assert jj.broad_monomial is None
    assert jj.degree == P.charge


def test_exception_variables_only_two_variable_loops():
    assert mirror.exception_variables(W("x1^2*x2 + x2^2*x1")) == (0, 1)
    assert mirror.exception_variables(W("x1^2*x2 + x2^4*x1")) == (0,)
    assert mirror.exception_variables(W("x1^3*x2 + x2^4*x1")) == ()
    # three-variable loops never trigger the exception
    assert mirror.exception_variables(W("x1^2*x2 + x2^2*x3 + x3^2*x1")) == ()


def test_weight_half_chain_refused():
    P = W("x1^2*x2 + x2^2")     # tail weight 1/2
    with pytest.raises(UnsupportedByTheorem):
        mirror.psi(P, (0, 0))
    # plain x^2 is fine: weight 1/2 but not a chain variable
    mirror.psi(W("x1^2"), (0,))


@pytest.mark.parametrize("text", MIRROR_FAMILY)
def test_degree_preservation(text):
    P = W(text)
    ring = ring_of(P.transpose())
    for m in ring.basis.monomials:
        assert ring.wt(m) == mirror.psi(P, m).degree, m


@pytest.mark.parametrize("text", MIRROR_FAMILY)
def test_three_point_sector_law(text):
    # every monomial of reduce(m·n) sits in the sector γ_m γ_n J⁻¹
    P = W(text)
    ring = JacobiRing(P.transpose())
    J = grading_element(P)
    basis = ring.basis.monomials
    for m in basis[: min(len(basis), 6)]:
        for n in basis[: min(len(basis), 6)]:
            target = mirror.sector_of(P, m) * mirror.sector_of(P, n) * J ** -1
            prod = tuple(a + b for a, b in zip(m, n))
            for b in ring.monomial_of(ring.reduce(prod)):
                assert mirror.sector_of(P, b) == target


def test_sector_of_numerators_are_the_phases():
    """On every basis monomial α of Jac(Wᵗ), for the criterion 1–3 atomics
    W with μ ≤ 64, the numerators of `sector_of` over D are
    D·frac(Σ_j α_j ρ_j^{(i)} + q_i), with ρ and q = E⁻¹·(1, …, 1) read from
    the Fraction inverse."""
    checked = 0
    for P in criteria_atomics():
        basis = ring_of(P.transpose()).basis.monomials
        if len(basis) > 64:
            continue
        E_inv = P.inverse_exponents()
        q = [sum(row) for row in E_inv]
        for m in basis:
            phases = [(sum(a * rho for a, rho in zip(m, row)) + qi) % 1
                      for row, qi in zip(E_inv, q)]
            assert all((P.D * p).denominator == 1 for p in phases)
            assert mirror.sector_of(P, m).num == tuple(int(P.D * p) for p in phases)
            assert mirror.sector_of(P, m).den == P.D
        checked += 1
    assert checked > 100


def test_mirror_tensor_product():
    # sectors on a disjoint sum restrict to the summand sectors
    P = W("x1^2*x2 + x2^2*x1 + x3^4")
    L = W("x1^2*x2 + x2^2*x1")
    Fm = W("x1^4")
    img = mirror.psi(P, (1, 0, 2))
    img_l = mirror.psi(L, (1, 0))
    img_f = mirror.psi(Fm, (2,))
    assert img.sector.phases == img_l.sector.phases + img_f.sector.phases
    assert img.degree == img_l.degree + img_f.degree
    assert img.broad_monomial == (1, 0, 0)


@pytest.mark.parametrize("text, message", [
    ("x1^3*x2 + x2^4", "chain variables other than the final one are not supported"),
    ("x1^2 + x2^3", "Fermat variables need exponent at least 3"),
])
def test_gate_refuses_before_it_builds(text, message):
    """`admissible_target` reads x_i's summand in W: a refused target
    leaves no atomic piece in W's memo."""
    P = W(text)
    with pytest.raises(UnsupportedByTheorem) as info:
        mirror.admissible_target(P, 1)
    assert str(info.value) == message
    assert [key for key in P.memo if type(key) is tuple and key[0] == "piece"] == []


def test_non_final_chain_targets_agree_behind_the_gate():
    """The gate refuses every chain variable but the last, yet on every
    non-final chain variable with aᵢ ≥ 3 (chains with N ≤ 4, exponents
    2–5 and no weight-½ variable) the paths behind it, run on
    `W.piece`, give A = qᵢ = −Bᵢ by the concave formula."""
    agreeing = 0
    for P in criteria_atomics():
        s = P.summands[0]
        if s.kind != "chain":
            continue
        for v, a in zip(s.variables[:-1], s.exponents[:-1]):
            with pytest.raises(UnsupportedByTheorem, match="other than the final one"):
                mirror.admissible_target(P, v + 1)
            if a < 3:
                continue
            piece, local = P.piece(v)
            report = _four_point_report(piece, local)
            assert (report.method, report.value) == ("concave", P.q[v])
            assert _sg_four_point(piece, local) == -P.q[v]
            agreeing += 1
    assert agreeing == 513
