"""Acceptance gate: one test per shipped criterion, every equality exact.

Each test prints a single ``ACCEPTANCE n: PASS`` line on success (visible
with ``pytest -s`` or in captured output); a failing criterion fails its
test, so ``pytest -v tests/test_acceptance.py`` gives exactly one
pass/fail line per criterion.
"""

import time
from fractions import Fraction
from itertools import combinations_with_replacement, product as cartesian

from lgmirror.amodel import four_point_report, wdvv_case1
from lgmirror.bmodel import good_basis_check, perturbative_expand, sg_four_point
from lgmirror.jacobi import JacobiRing, OracleQuotient
from lgmirror.mirror import admissible_target, psi, sector_of
from lgmirror.poly import AtomicSummand, InvertiblePolynomial
from lgmirror.selection import CorrelatorSpec

from support import from_dense, grading_element, reassemble, residue_pairing

F = Fraction


def atomic(kind, a) -> InvertiblePolynomial:
    n = len(a)
    s = AtomicSummand(kind, tuple(a), tuple(range(n)))
    return from_dense(reassemble([s], n))


def poly(text) -> InvertiblePolynomial:
    return InvertiblePolynomial.from_string(text)


def passed(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n}: PASS — {message}")


# ---------------------------------------------------------------------------
# 1. Fermat suite


def test_criterion_1_fermat_suite():
    t0 = time.perf_counter()
    for a in range(3, 10):
        W = atomic("fermat", (a,))
        assert four_point_report(admissible_target(W, 1)).value == F(1, a)
        assert sg_four_point(admissible_target(W, 1)) == -F(1, a)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    passed(1, f"A = 1/a and B = -1/a for Fermat a = 3..9 in {dt:.2f}s")


# ---------------------------------------------------------------------------
# 2. Chain suite


def test_criterion_2_chain_suite():
    t0 = time.perf_counter()
    count = 0
    for N in (2, 3, 4):
        for a in cartesian(range(2, 6), repeat=N):
            if a[-1] < 3:
                continue
            W = atomic("chain", a)
            q_final = W.q[N - 1]
            assert q_final == F(1, a[-1])
            report = four_point_report(admissible_target(W, N))
            assert report.value == q_final
            assert report.method == "concave"
            assert sg_four_point(admissible_target(W, N)) == -q_final
            count += 1
    dt = time.perf_counter() - t0
    assert dt < 10.0
    passed(2, f"{count} chains (N <= 4, a_i <= 5, a_N >= 3) concave in {dt:.2f}s")


# ---------------------------------------------------------------------------
# 3. Loop suite


def expected_loop_method(a) -> str:
    if len(a) == 2 and a == (2, 2):
        return "wdvv1"
    if len(a) == 2 and a[-1] == 2:
        return "wdvv2"
    if a[-1] == 2:
        return "guere"
    return "concave"


def test_criterion_3_loop_suite():
    t0 = time.perf_counter()
    by_method = {"concave": 0, "guere": 0, "wdvv1": 0, "wdvv2": 0}
    for N in (2, 3, 4):
        for a in cartesian(range(2, 6), repeat=N):
            W = atomic("loop", a)
            q_final = W.q[N - 1]
            report = four_point_report(admissible_target(W, N))
            assert report.value == q_final
            assert report.method == expected_loop_method(a)
            assert sg_four_point(admissible_target(W, N)) == -q_final
            by_method[report.method] += 1
    dt = time.perf_counter() - t0
    assert dt < 30.0
    assert all(by_method.values())
    total = sum(by_method.values())
    passed(3, f"{total} loops ({by_method}) match q_N / -q_N in {dt:.2f}s")


# ---------------------------------------------------------------------------
# 4. The exceptional-loop linear system


def test_criterion_4_symmetric_loop_system():
    W = poly("x1^2*x2 + x2^2*x1")
    X, corrections = wdvv_case1(W, F(2, 27))
    assert X == F(1, 3)
    assert corrections == (F(-2, 3), F(2, 9), F(-1, 9))
    passed(4, "X0 = 2/27 yields X = 1/3 and (X1, X2, X3) = (-2/3, 2/9, -1/9)")


# ---------------------------------------------------------------------------
# 5. Jacobi-ring oracle equivalence

ORACLE_RINGS = [
    "x1^3",
    "x1^4",
    "x1^5",
    "x1^7",
    "x1^9",
    "x1^3*x2 + x2^4",
    "x1^5*x2 + x2^5",
    "x1^2 + x1*x2^2",
    "x1^4 + x1*x2^3",
    "x1^2*x2 + x2^3*x3 + x3^4",
    "x1^2 + x1*x2^2 + x2*x3^3",
    "x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^3",
    "x1^2*x2 + x2^2*x1",
    "x1^3*x2 + x2^3*x1",
    "x1^4*x2 + x2^5*x1",
    "x1^5*x2 + x2^5*x1",
    "x1^2*x2 + x2^3*x3 + x3^4*x1",
    "x1^3*x2 + x2^3*x3 + x3^3*x1",
    "x1^5*x2 + x2^5*x3 + x3^5*x1",
    "x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x1",
    "x1^2*x2 + x2^3*x3 + x3^2*x4 + x4^3*x1",
    "x1^3 + x2^2*x3 + x3^2*x2",
    "x1^3*x2 + x2^3 + x3^4",
    "x1^2 + x1*x2^2 + x3^3*x4 + x4^3*x3",
    "x1^6 + x2^6",
]


def oracle_nf(oracle, reduced: dict) -> dict:
    acc: dict = {}
    for m, c in reduced.items():
        for m2, c2 in oracle.normal_form(m).items():
            acc[m2] = acc.get(m2, F(0)) + c * c2
    return {m: c for m, c in acc.items() if c != 0}


def test_criterion_5_jacobi_oracle_equivalence():
    assert len(ORACLE_RINGS) >= 20
    checked = loops = 0
    for text in ORACLE_RINGS:
        W = poly(text)
        R = JacobiRing(W)
        assert R.mu <= 125
        for s in W.summands:
            if s.kind == "loop":
                product = 1
                for e in s.exponents:
                    product *= e
                local = JacobiRing(atomic("loop", s.exponents))
                assert local.mu == product
                loops += 1
        degree_cap = sum(R.top) + 2
        monomials = [
            m
            for m in cartesian(*(range(degree_cap + 1) for _ in range(W.N)))
            if sum(m) <= degree_cap
        ]
        bound = max(max(R.wt(m) for m in monomials), W.charge)
        oracle = OracleQuotient(W, bound)
        assert oracle.dimension == R.mu
        for m in monomials:
            mine = R.monomial_of(R.reduce(m))
            assert oracle_nf(oracle, mine) == oracle.normal_form(m), (text, m)
            checked += 1
    passed(
        5,
        f"{len(ORACLE_RINGS)} rings, {checked} normal forms against the "
        f"elimination oracle; mu(loop) = prod(a_i) on {loops} loop summands",
    )


# ---------------------------------------------------------------------------
# 6. Good bases of the transposes


def test_criterion_6_good_basis_sweep():
    count = pairs = 0
    for kind in ("chain", "loop"):
        for N in (2, 3, 4):
            for a in cartesian(range(2, 6), repeat=N):
                WT = atomic(kind, a).transpose()
                report = good_basis_check(WT)
                mu = report.mu
                assert report.checked_pairs == mu * (mu + 1) // 2
                # every admissible class sits in an allowed monomial family
                # and pairs at degree = central charge (z^N exactly)
                assert report.passed, (kind, a, report.failures)
                assert report.admissible_pairs > 0
                count += 1
                pairs += report.checked_pairs
    passed(6, f"{count} chain/loop transposes, {pairs} basis pairs classified")


# ---------------------------------------------------------------------------
# 7. Selection rules on 3-point structure constants

SELECTION_POLYNOMIALS = [
    "x1^3",
    "x1^4",
    "x1^5",
    "x1^7",
    "x1^3*x2 + x2^4",
    "x1^2*x2 + x2^4",
    "x1^4*x2 + x2^5",
    "x1^2*x2 + x2^2*x3 + x3^3",
    "x1^3*x2 + x2^3*x3 + x3^3",
    "x1^2*x2 + x2^2*x1",
    "x1^3*x2 + x2^2*x1",
    "x1^3*x2 + x2^3*x1",
    "x1^2*x2 + x2^3*x3 + x3^2*x1",
    "x1^3*x2 + x2^3*x3 + x3^3*x1",
    "x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x1",
    "x1^3 + x2^2*x3 + x3^2*x2",
    "x1^3*x2 + x2^3 + x3^4",
    "x1^4 + x2^4",
]


def test_criterion_7_three_point_selection_invariant():
    total = 0
    for text in SELECTION_POLYNOMIALS:
        W = poly(text)
        WT = W.transpose()
        ring = JacobiRing(WT)
        charge = WT.charge
        basis = ring.basis.monomials
        primitives = [
            tuple(1 if j == i else 0 for j in range(W.N)) for i in range(W.N)
        ]
        for p in primitives:
            pw = ring.wt(p)
            pe = ring.reduce(p)
            for alpha, beta in combinations_with_replacement(basis, 2):
                if pw + ring.wt(alpha) + ring.wt(beta) != charge:
                    continue
                pairing = residue_pairing(
                    ring, ring.multiply(pe, ring.reduce(alpha)), ring.reduce(beta)
                )
                if pairing == 0:
                    continue
                spec = CorrelatorSpec.build(W, [p, alpha, beta])
                assert sum(spec.K) == 1, (text, p, alpha, beta)
                assert all(K.denominator == 1 for K in spec.K)
                total += 1
    assert total >= 100
    passed(7, f"sum(K) = 1 and K integral on {total} nonzero structure constants")


# ---------------------------------------------------------------------------
# 8. Mirror map: degrees and sector laws

MIRROR_POLYNOMIALS = [
    "x1^3",
    "x1^5",
    "x1^9",
    "x1^3*x2 + x2^4",
    "x1^4*x2 + x2^5",
    "x1^2*x2 + x2^2*x3 + x3^3",
    "x1^2*x2 + x2^2*x1",
    "x1^3*x2 + x2^2*x1",
    "x1^3*x2 + x2^3*x1",
    "x1^2*x2 + x2^3*x3 + x3^2*x1",
    "x1^3 + x2^2*x3 + x3^2*x2",
    "x1^3*x2 + x2^3 + x3^4",
    "x1^4 + x2^4",
    "x1^3 + x2^3 + x3^3",
]


def test_criterion_8_mirror_map_checks():
    monomials = 0
    for text in MIRROR_POLYNOMIALS:
        W = poly(text)
        ring = JacobiRing(W.transpose())
        basis = ring.basis.monomials
        for m in basis:
            assert ring.wt(m) == psi(W, m).degree, (text, m)
        monomials += len(basis)
        # product law: sectors compose up to one grading shift
        J = grading_element(W)
        for m1, m2 in combinations_with_replacement(basis, 2):
            m12 = tuple(a + b for a, b in zip(m1, m2))
            assert sector_of(W, m1) * sector_of(W, m2) == sector_of(W, m12) * J
    # tensor law: sectors of a direct sum concatenate the factors' phases
    for left, right in (("x1^3", "x1^4"), ("x1^5", "x1^3*x2 + x2^3*x1")):
        A, B = poly(left), poly(right)
        blocks = [list(row) + [0] * B.N for row in A.E]
        blocks += [[0] * A.N + list(row) for row in B.E]
        combined = from_dense(blocks)
        ra, rb = JacobiRing(A.transpose()), JacobiRing(B.transpose())
        for ma in ra.basis.monomials:
            for mb in rb.basis.monomials:
                m = ma + mb
                assert (
                    sector_of(combined, m).phases
                    == sector_of(A, ma).phases + sector_of(B, mb).phases
                )
    passed(8, f"degree preservation and sector laws on {monomials} basis monomials")


# ---------------------------------------------------------------------------
# 9. Perturbative primitive-form solver

SERIES_TARGETS = [
    ("x1^3", 1),
    ("x1^5", 1),
    ("x1^7", 1),
    ("x1^3*x2 + x2^3", 2),
    ("x1^2*x2 + x2^4", 2),
    ("x1^2*x2 + x2^3*x1", 1),
    ("x1^2*x2 + x2^3*x1", 2),
    ("x1^3*x2 + x2^3*x1", 2),
]


def test_criterion_9_perturbative_solver_properties():
    for text, i in SERIES_TARGETS:
        W = poly(text)
        f = W.transpose()
        ring = JacobiRing(f)
        target = tuple(W.E[j][i - 1] for j in range(f.N))
        ix = ring.basis.index[tuple(1 if j == i - 1 else 0 for j in range(f.N))]
        isv = ring.basis.index[
            tuple(e - 2 if j == i - 1 else e for j, e in enumerate(target))
        ]
        unit = (0,) * f.N
        # zeta through order 1 is exactly the volume class [d^n x]
        state = perturbative_expand(f, 1)
        assert set(state.zeta) == {()}
        assert state.zeta[()].terms == {0: {unit: F(1)}}
        # flat coordinates are the deformation parameters to first order
        state = perturbative_expand(f, 2)
        for a in range(len(state.basis)):
            flat = state.flat_coordinate(a)
            assert {sm: c for sm, c in flat.items() if len(sm) == 1} == {(a,): F(1)}
        # and the quadratic corrections feeding the four-point coefficient vanish
        for pair in ((ix, ix), (ix, isv)):
            smono = tuple(sorted(pair))
            for a in range(len(state.basis)):
                assert state.j_coefficient(-1, smono, a) == 0
    passed(9, f"primitive-form series checks on {len(SERIES_TARGETS)} targets")
