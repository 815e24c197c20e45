"""Tests for the correlator vanishing axioms and type classification."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from lgmirror.errors import WrongConfiguration
from lgmirror.groups import GroupElement, generator_rho
from lgmirror.jacobi import JacobiRing, ring_of
from lgmirror.mirror import sector_of
from lgmirror.poly import AtomicSummand, InvertiblePolynomial
from lgmirror.selection import (
    NOT_X_MINUS_1,
    X_0,
    X_MINUS_1,
    CorrelatorSpec,
    classify_type,
    line_bundle_degrees,
    passes_axioms,
)

from support import from_dense, grading_element, reassemble, residue_pairing

F = Fraction


def enumerate_candidates(W: InvertiblePolynomial, k_max: int = 6):
    """Yield all CorrelatorSpec with 3 <= k <= k_max insertions drawn from
    the standard basis of the transpose, of total degree <= charge + 3.

    Intended for property tests at desk scale; the degree cap is what the
    dimension axiom allows for k <= 6.
    """
    WT = W.transpose()
    basis = ring_of(WT).basis
    deg = {m: WT.degree(m) for m in basis.monomials}
    bound = (W.charge + 3) * WT.D
    primitives = []
    for i in reversed(range(W.N)):
        m = tuple(1 if j == i else 0 for j in range(W.N))
        if m in basis.index:
            primitives.append(m)
    for k in range(3, k_max + 1):
        for head in combinations_with_replacement(primitives, k - 2):
            head_deg = sum(deg[m] for m in head)
            if head_deg > bound:
                continue
            for alpha, beta in combinations_with_replacement(basis.monomials, 2):
                if head_deg + deg[alpha] + deg[beta] <= bound:
                    yield CorrelatorSpec.build(W, list(head) + [alpha, beta])


def _e(n, *pairs):
    m = [0] * n
    for i, v in pairs:
        m[i] = v
    return tuple(m)


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
    assert X.insertions[-2:] == (_e(3, (0, 1)), _e(3, (1, 1)))


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
    assert X.Db == (2 * W.D,)
    assert X.DK == (W.D,)
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
    assert X.DK == (9,) and W.D == 5
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
    assert [F(x, W.D) for x in degs] == [-2 * q for q in W.q]


def test_line_bundle_fermat_theta_s_h():
    a = 5
    W = InvertiblePolynomial.from_string(f"x1^{a}")
    D, (q,) = W.D, W.Dq
    (rho,) = generator_rho(W, 1).num
    theta = GroupElement(((q + rho) % D,), D)
    s = GroupElement(((q - 2 * rho) % D,), D)
    h = GroupElement((D - q,), D)
    assert theta.phases == (F(2, a),)
    assert s.phases == (F(a - 1, a),) and h.phases == (F(a - 1, a),)
    assert line_bundle_degrees(W, [theta, theta, s, h]) == [-2 * D]


def test_line_bundle_chain_final_type():
    # chain x1^3*x2 + x2^4, insertions (theta_N, theta_N, S_N, H)
    W = InvertiblePolynomial.from_string("x1^3*x2 + x2^4")
    n, D = W.N, W.D
    rho = generator_rho(W, n).num
    theta = GroupElement(tuple((q + r) % D for q, r in zip(W.Dq, rho)), D)
    s = GroupElement(tuple((q - 2 * r) % D for q, r in zip(W.Dq, rho)), D)
    h = GroupElement(tuple(D - q for q in W.Dq), D)
    degs = line_bundle_degrees(W, [theta, theta, s, h])
    assert degs == [-D, -2 * D]


def three_point_corpus():
    """x^a for 3 <= a <= 8 and every chain and loop with N in {2, 3} and
    a_i in {2, 3, 4}, less those with a weight-1/2 variable."""
    shapes = [("fermat", (a,)) for a in range(3, 9)]
    shapes += [(kind, a) for kind in ("chain", "loop") for n in (2, 3)
               for a in product(range(2, 5), repeat=n)]
    for kind, a in shapes:
        raw = reassemble([AtomicSummand(kind, a, tuple(range(len(a))))], len(a))
        W = from_dense(raw)
        if not W.weight_half_variables():
            yield W


def test_three_point_a_equals_b_on_concave_and_fractional_triples():
    """Genus-zero three-point invariants <a, b, c> of narrow sectors, for
    non-unit basis monomials of Jac(Wᵗ) whose degrees sum to ĉ.  On the A
    side, read off the integers D·l_j: all equal to -D is the concave
    class, with A = 1; some not divisible by D breaks the integer-degree
    axiom, and A = 0.  Every other triple has index zero: degree 0 at one
    x_i, -2 at one x_j and -1 elsewhere, where x_i heads the row
    x_i^{a_i}·x_j of W, and A = -a_i.  B is the coefficient of the socle
    monomial in [abc].  Broad triples are not compared."""
    corpus = list(three_point_corpus())
    assert len(corpus) == 66
    concave = fractional = index_zero = 0
    for W in corpus:
        WT, D = W.transpose(), W.D
        ring = ring_of(WT)
        # narrow sectors only, each with its monomial's degree over WT.D
        narrow = {m: (WT.degree(m), sector_of(W, m)) for m in ring.basis.monomials if any(m)}
        narrow = {m: v for m, v in narrow.items() if v[1].is_narrow()}
        target = int(W.charge * WT.D)  # N·D - 2·sum(D·q), an integer
        for a, b, c in combinations_with_replacement(narrow, 3):
            if narrow[a][0] + narrow[b][0] + narrow[c][0] != target:
                continue
            sectors = [narrow[m][1] for m in (a, b, c)]
            degrees = line_bundle_degrees(W, sectors)
            abc = ring.reduce(tuple(map(sum, zip(a, b, c))))
            B = dict(abc.coeffs).get(ring.basis.index[ring.top], 0)
            if all(d == -D for d in degrees):
                assert B == 1, (W.to_string(), a, b, c)
                concave += 1
            elif any(d % D for d in degrees):
                assert B == 0, (W.to_string(), a, b, c)
                fractional += 1
            else:
                assert sorted(degrees) == [-2 * D] + [-D] * (W.N - 2) + [0]
                i, j = degrees.index(0), degrees.index(-2 * D)
                row = W.E[W.head[i]]
                assert row == tuple(row[i] if v == i else int(v == j) for v in range(W.N))
                assert B == -row[i], (W.to_string(), a, b, c)
                index_zero += 1
    assert (concave, fractional, index_zero) == (1257, 2722, 309)


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
        if residue_pairing(ring, prod, ring.reduce(mc)) == 0:
            continue
        X = CorrelatorSpec.build(W, [p, mb, mc])
        assert all(x % W.D == 0 for x in X.DK)
        assert sum(X.DK) == W.D
        assert passes_axioms(W, X)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("expr", ["x1^3 + x2^4", "x1^5"])
def test_fermat_splitting(expr):
    """Candidates of type X(-1) over Fermat sums concentrate on one variable:
    K_j = 1, ell_j = 2, m_j + n_j = 2a_j - 4, everything else zero."""
    W = InvertiblePolynomial.from_string(expr)
    a = [W.summand_of(i).exponents[0] for i in range(W.N)]
    seen = 0
    for X in enumerate_candidates(W, k_max=5):
        if classify_type(W, X) == NOT_X_MINUS_1:
            continue
        js = [i for i in range(W.N) if X.DK[i] == W.D]
        assert len(js) == 1
        j = js[0]
        assert all(X.DK[i] == 0 for i in range(W.N) if i != j)
        assert all(X.ell[i] == 0 for i in range(W.N) if i != j)
        assert X.ell[j] == 2
        alpha, beta = X.insertions[-2:]
        assert alpha[j] + beta[j] == 2 * a[j] - 4
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
        sums = sorted(sum(X.DK[i] for i in s.variables) for s in W.summands)
        assert sums == [0] * (len(W.summands) - 1) + [W.D]
        if kind == X_0:
            carrier = next(
                s for s in W.summands if sum(X.DK[i] for i in s.variables) == W.D
            )
            assert sum(X.ell[i] for i in carrier.variables) >= 2
        seen += 1
    assert seen > 0


# The rules `passes_axioms` and `classify_type` stated over Jac(Wᵗ) with
# `Fraction`s: the reference the integer forms over D are checked against.


def reference_axioms(W, X, K):
    """The insertions' degrees in Jac(Wᵗ) sum to ĉ + k - 3, and every K_i
    is an integer."""
    WT = W.transpose()
    total = sum(WT.degree(m) for m in X.insertions)
    return total == (W.charge + X.k - 3) * WT.D and all(x.denominator == 1 for x in K)


def reference_type(W, X, K):
    """At least four insertions, alpha and beta in the basis of Jac(Wᵗ),
    integer K with sum(K) = 1; X0 if one summand carries all of K and at
    least two primitive insertions."""
    alpha, beta = X.insertions[-2:]
    if X.k < 4 or sum(X.ell) != X.k - 2:
        return NOT_X_MINUS_1
    ring = ring_of(W.transpose())
    if not (ring.in_basis(alpha) and ring.in_basis(beta)):
        return NOT_X_MINUS_1
    if any(x.denominator != 1 for x in K) or sum(K) != 1:
        return NOT_X_MINUS_1
    carriers = []
    for s in W.summands:
        k_sum = sum(K[i] for i in s.variables)
        if k_sum == 1:
            carriers.append(s)
        elif k_sum != 0:
            return X_MINUS_1
    if len(carriers) == 1 and sum(X.ell[W.head[i]] for i in carriers[0].variables) >= 2:
        return X_0
    return X_MINUS_1


REFERENCE_FAMILY = THREE_POINT_FAMILY + [
    "x1^2*x3 + x3^3*x2 + x2^2*x1",   # a loop whose variables run x1 -> x3 -> x2
    "x2^3 + x3^3*x1 + x1^2*x3",      # a shuffled direct sum of a Fermat and a loop
]


def seeded_candidates(W, seed, count=150):
    """Insertion lists with identities in the head, k up to 7, and alpha
    and beta drawn from a box around the basis, in and out of it."""
    rng = random.Random(seed)
    units = [tuple(int(j == i) for j in range(W.N)) for i in range(W.N)] + [(0,) * W.N]
    for _ in range(count):
        head = [rng.choice(units) for _ in range(rng.randint(1, 5))]
        ends = [tuple(rng.randint(0, 3) for _ in range(W.N)) for _ in range(2)]
        yield CorrelatorSpec.build(W, head + ends)


@pytest.mark.parametrize("expr", REFERENCE_FAMILY)
def test_integer_bookkeeping_matches_the_reference(expr):
    """On every enumerated and seeded candidate: E·b = ell + alpha + beta + 2
    with E read off `W.rows()`, K = ell_head - b + 1, and the axioms and
    the type agree with the reference rules over Jac(Wᵗ)."""
    W = InvertiblePolynomial.from_string(expr)
    D, rows = W.D, W.rows()
    kinds = set()
    for X in list(enumerate_candidates(W)) + list(seeded_candidates(W, seed=expr)):
        alpha, beta = X.insertions[-2:]
        for r, row in enumerate(rows):
            Eb = sum(e * X.Db[j] for j, e in row.items())
            assert Eb == D * (X.ell[r] + alpha[r] + beta[r] + 2), (expr, X)
        assert X.DK == tuple(D * (X.ell[W.head[i]] + 1) - X.Db[i] for i in range(W.N))
        K = [F(x, D) for x in X.DK]
        assert passes_axioms(W, X) == reference_axioms(W, X, K), (expr, X)
        kind = classify_type(W, X)
        assert kind == reference_type(W, X, K), (expr, X)
        kinds.add(kind)
    assert NOT_X_MINUS_1 in kinds and len(kinds) >= 2, kinds


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
    assert X.DK == (2, 1) and W.D == 3
    assert not passes_axioms(W, X)
    assert classify_type(W, X) == NOT_X_MINUS_1
