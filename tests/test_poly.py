import json
import math
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import permutations, product as cartesian

import pytest
from hypothesis import given, strategies as st

from lgmirror import cli, linalg
from lgmirror.errors import UnsupportedByTheorem, WrongConfiguration
from lgmirror.jacobi import _partials, ring_of
from lgmirror.mirror import final_type_insertions, require_mirror_hypotheses
from lgmirror.poly import (
    AtomicSummand,
    InvertiblePolynomial,
    NotInvertibleShape,
    PolynomialSyntaxError,
    _canonical,
    _classify_rows,
    parse_exponent_matrix,
)

from support import criteria_atomics, dense_inverse, from_dense, reassemble
from test_row_order import POLYNOMIALS as ROW_ORDER_POLYNOMIALS

F = Fraction


# ---------------------------------------------------------------------------
# parsing

def test_parse_simple_chain():
    assert parse_exponent_matrix("x1^3*x2 + x2^4") == [{0: 3, 1: 1}, {1: 4}]


def test_parse_implicit_exponent_and_whitespace():
    assert parse_exponent_matrix(" x1^2 * x2  +  x2^3 ") == [{0: 2, 1: 1}, {1: 3}]


def test_parse_repeated_factor_accumulates():
    # x1*x1 is legal input text for x1^2
    assert parse_exponent_matrix("x1*x1 + x1*x2^2")[0] == {0: 2}


def test_repeated_monomial_is_named():
    """Text input is checked by its parser alone, which names a repeated
    monomial, in whatever order of factors."""
    for text in ["x1^2*x2 + x1^2*x2", "x1^2*x2 + x2*x1^2", "x1^2*x3 + x2^3 + x3*x1*x1"]:
        with pytest.raises(PolynomialSyntaxError, match="^repeated monomial$"):
            InvertiblePolynomial.from_string(text)


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


@pytest.mark.parametrize("E, message", [
    ("abc", "exponent matrix must be a list of rows"),
    ([[3], 3.5], "exponent matrix must be a list of rows"),
    ([[3, True], [0, 4]], "exponents must be integers"),
    ([[-1, 2.5]], "exponents must be integers"),
    ([[3, "1"], [-1]], "exponents must be integers"),
    ([], "exponent matrix must be square and nonempty"),
    ([[3, -1]], "exponent matrix must be square and nonempty"),
    ([[3, 1], [-1]], "exponent matrix must be square and nonempty"),
    ([[3, -1], [0, 4]], "negative exponent"),
    ([[1, 0], [0, -4]], "negative exponent"),
    ([[1, 0], [0, 4]], "monomial 1 is linear in x1"),
])
def test_json_reports_its_first_failing_check(E, message):
    """`from_json` checks a dense matrix in one order, a list of rows,
    integer entries, square, nonnegative, and then classifies it: an input
    with several faults reports the first."""
    with pytest.raises((PolynomialSyntaxError, NotInvertibleShape)) as info:
        InvertiblePolynomial.from_json(json.dumps({"E": E}))
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# classification

def test_classify_fermat():
    W = from_dense([[3]])
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
        from_dense(bad_E)


def _row_maps(E):
    """The {column: exponent} maps of a dense matrix's rows, zeros dropped."""
    return [{j: e for j, e in enumerate(row) if e} for row in E]


def _two_walk_classify(E):
    """The classifier before the one-walk rewrite, kept as a reference: a
    walk from every in-degree-0 variable for chains and Fermats, then a
    second walk over what is left for loops."""
    n = len(E)
    owner_row, out_edge = {}, {}
    for r, row in enumerate(E):
        support = [(j, e) for j, e in enumerate(row) if e != 0]
        if len(support) == 1:
            j, e = support[0]
            if e < 2:
                raise NotInvertibleShape(f"monomial {r+1} is linear in x{j+1}")
            owner, target = j, None
        elif len(support) == 2:
            heads = [(j, e) for j, e in support if e >= 2]
            tails = [(j, e) for j, e in support if e == 1]
            if len(heads) != 1 or len(tails) != 1:
                raise NotInvertibleShape(
                    f"monomial {r+1} does not look like x_i^a or x_i^a·x_j")
            owner, target = heads[0][0], tails[0][0]
        else:
            raise NotInvertibleShape(f"monomial {r+1} involves {len(support)} variables")
        if owner in owner_row:
            raise NotInvertibleShape(f"x{owner+1} heads two monomials")
        owner_row[owner] = r
        out_edge[owner] = target
    if set(owner_row) != set(range(n)):
        orphan = sorted(set(range(n)) - set(owner_row))
        raise NotInvertibleShape(f"x{orphan[0]+1} heads no monomial")
    exponent_of = {v: E[owner_row[v]][v] for v in range(n)}
    in_deg = {v: 0 for v in range(n)}
    for v, t in out_edge.items():
        if t is not None:
            in_deg[t] += 1
    if any(d > 1 for d in in_deg.values()):
        v = next(v for v, d in in_deg.items() if d > 1)
        raise NotInvertibleShape(f"x{v+1} is pointed at by two monomials")
    summands, seen = [], set()
    for start in range(n):
        if in_deg[start] or start in seen:
            continue
        path = [start]
        while out_edge[path[-1]] is not None:
            nxt = out_edge[path[-1]]
            if nxt in path:
                raise NotInvertibleShape("cycle with an incoming tail")
            path.append(nxt)
        seen.update(path)
        kind = "fermat" if len(path) == 1 else "chain"
        summands.append(_canonical(kind, [exponent_of[v] for v in path], path))
    for start in range(n):
        if start in seen:
            continue
        cycle = [start]
        while True:
            nxt = out_edge[cycle[-1]]
            if nxt is None or nxt in seen:
                raise NotInvertibleShape("broken cycle")
            if nxt == start:
                break
            cycle.append(nxt)
        seen.update(cycle)
        summands.append(_canonical("loop", [exponent_of[v] for v in cycle], cycle))
    summands.sort(key=lambda s: s.variables[0])
    return summands, tuple(owner_row[v] for v in range(n))


def _outcome(classify, E):
    """(summands, head), or the class and message of the refusal."""
    try:
        return classify(E)
    except NotInvertibleShape as exc:
        return type(exc), str(exc)


def _shuffled_sum(rng):
    """1–3 Fermat/chain/loop pieces with exponents 2–5, on relabelled
    variables, with the monomials shuffled."""
    pieces = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["fermat", "chain", "loop"])
        k = 1 if kind == "fermat" else rng.randint(2, 4)
        pieces.append((kind, [rng.randint(2, 5) for _ in range(k)]))
    n = sum(len(a) for _, a in pieces)
    labels = rng.sample(range(n), n)
    summands, at = [], 0
    for kind, a in pieces:
        summands.append(AtomicSummand(kind, tuple(a), tuple(labels[at:at + len(a)])))
        at += len(a)
    rows = reassemble(summands, n)
    rng.shuffle(rows)
    return rows


MALFORMED = [
    [[2, 2], [0, 3]],                       # two heads in one monomial
    [[3, 0], [2, 1]],                       # x2 heads nothing, so x1 heads two
    [[2, 0, 1], [0, 2, 1], [0, 0, 2]],      # x3 pointed at twice
    [[2, 1, 0, 0, 0], [0, 2, 0, 0, 1], [0, 1, 2, 0, 0],
     [0, 0, 0, 2, 1], [0, 0, 0, 0, 2]],     # x2 and x5 pointed at twice
    [[2, 1, 0], [1, 2, 0], [0, 1, 2]],      # a tail into a loop
    [[1, 0], [0, 2]],                       # a linear monomial
    [[1, 1], [0, 2]],                       # x1·x2
    [[2, 1, 1], [0, 2, 0], [0, 0, 2]],      # a three-variable row
    [[0, 0], [0, 2]],                       # an empty row
]


def test_one_walk_matches_the_two_walk_classifier():
    """`_classify_rows` walks the successor map once, sources first; it
    returns the summands and head rows of the two-walk classifier on
    shuffled direct sums, and its refusal, class and message, on malformed
    matrices: the hand-picked ones and seeded one-entry edits of sums."""
    rng = random.Random(20261019)
    for _ in range(1500):
        E = _shuffled_sum(rng)
        assert _classify_rows(_row_maps(E)) == _two_walk_classify(E)
    refusals = set()
    edits = []
    for _ in range(1500):
        E = _shuffled_sum(rng)
        r, c = rng.randrange(len(E)), rng.randrange(len(E))
        E[r][c] = rng.randint(0, 3)
        edits.append(E)
    for E in MALFORMED + edits:
        expected = _outcome(_two_walk_classify, E)
        assert _outcome(_classify_rows, _row_maps(E)) == expected
        if expected[0] is NotInvertibleShape:
            refusals.add(re.sub(r"\d+", "#", expected[1]))
    for E in MALFORMED:
        assert _outcome(_classify_rows, _row_maps(E))[0] is NotInvertibleShape
    assert refusals == {
        "monomial # is linear in x#",
        "monomial # does not look like x_i^a or x_i^a·x_j",
        "monomial # involves # variables",
        "x# heads two monomials",
        "x# is pointed at by two monomials",
    }


def test_reassemble_roundtrip():
    W = InvertiblePolynomial.from_string(
        "x1^3*x2 + x2^2*x3 + x3^5 + x4^2*x5 + x5^3*x4 + x6^7")
    rows = reassemble(W.summands, W.N)
    assert sorted(map(tuple, rows)) == sorted(W.E)


# ---------------------------------------------------------------------------
# weights and central charge

def test_weights_known_chain():
    W = InvertiblePolynomial.from_string("x1^3*x2 + x2^4")
    assert W.q == (F(1, 4), F(1, 4))
    assert W.charge == 1


def test_weights_satisfy_defining_equation():
    W = InvertiblePolynomial.from_string("x1^2*x2 + x2^3*x3 + x3^4*x1")
    assert linalg.mat_vec(W.E, list(W.q)) == [F(1)] * 3


def _chain_half_refusal(W):
    """The message with which `require_mirror_hypotheses` refuses W, or None."""
    try:
        require_mirror_hypotheses(W)
    except UnsupportedByTheorem as exc:
        return str(exc)
    return None


def _refusal_naming(variables):
    """The refusal that lists the 0-based ``variables``, or None for none."""
    if not variables:
        return None
    names = ", ".join(f"x{v + 1}" for v in variables)
    return f"chain variable(s) {names} have weight 1/2; the mirror theorem excludes this case"


def test_weight_half_flags():
    A1 = InvertiblePolynomial.from_string("x1^2")
    assert A1.weight_half_variables() == (0,)
    assert _chain_half_refusal(A1) is None
    C = InvertiblePolynomial.from_string("x1^2*x2 + x2^2")
    assert C.q == (F(1, 4), F(1, 2))
    assert _chain_half_refusal(C) == _refusal_naming([1])
    # summand order, not ascending
    D = InvertiblePolynomial.from_string("x1^3*x4 + x4^2 + x2^3*x3 + x3^2")
    assert _chain_half_refusal(D) == (
        "chain variable(s) x4, x3 have weight 1/2; the mirror theorem excludes this case")


@pytest.mark.parametrize("text", [
    "x1^2 + x2^3 + x3^2",
    "x1^2*x2 + x2^2 + x3^2*x4 + x4^2",
    "x3^2*x1 + x1^2 + x2^4",
    "x1^2*x2 + x2^2*x1 + x3^2",
    "x1^3*x4 + x4^2 + x2^3*x3 + x3^2",
])
def test_weight_half_scans_list_variables_in_order(text):
    """The weight-1/2 variables come in ascending order; the chain ones
    the theorem refuses come in summand order."""
    W = InvertiblePolynomial.from_string(text)
    half = [i for i, q in enumerate(W.q) if q == F(1, 2)]
    assert W.weight_half_variables() == tuple(half)
    tails = [v for s in W.summands if s.kind == "chain" for v in s.variables if v in half]
    assert _chain_half_refusal(W) == _refusal_naming(tails)


def test_transpose_is_involution_and_preserves_charge():
    W = InvertiblePolynomial.from_string("x1^3*x2 + x2^2*x3 + x3^4")
    Wt = W.transpose()
    assert Wt.transpose().E == W.E
    assert Wt.charge == W.charge
    assert W.group_order() == Wt.group_order()


def test_inverse_is_computed_once():
    W = InvertiblePolynomial.from_string("x1^3*x2 + x2^2*x3 + x3^4*x1")
    assert [list(row) for row in W.inverse_exponents()] == linalg.invert(W.E)


def test_chain_transpose_shape():
    # chain x1^2*x2 + x2^3 transposes to x1^2 + x1*x2^3
    W = InvertiblePolynomial.from_string("x1^2*x2 + x2^3")
    assert W.transpose().to_string() == "x1^2 + x1*x2^3"


# Direct sums with loops whose rotations tie, on shuffled variables and rows.
TIED_SUMS = [
    [("loop", (2, 2, 2)), ("loop", (3, 3))],
    [("loop", (2, 2)), ("loop", (2, 2, 2)), ("fermat", (3,))],
    [("loop", (3, 3)), ("chain", (2, 3)), ("loop", (2, 2))],
    [("loop", (2, 3, 2, 3)), ("loop", (2, 2))],
]


def tied_sums(shuffles=8):
    rng = random.Random(0)
    for pieces in TIED_SUMS:
        n = sum(len(a) for _, a in pieces)
        for _ in range(shuffles):
            labels = rng.sample(range(n), n)
            summands, at = [], 0
            for kind, a in pieces:
                summands.append(AtomicSummand(kind, a, tuple(labels[at:at + len(a)])))
                at += len(a)
            rows = reassemble(summands, n)
            rng.shuffle(rows)
            yield from_dense(rows)


def derived_cases():
    """Every criterion polynomial, every row order of the row-order suite's
    ten, and the tied-rotation sums."""
    yield from criteria_atomics()
    for text in ROW_ORDER_POLYNOMIALS:
        rows = parse_exponent_matrix(text)
        for order in permutations(range(len(rows))):
            yield InvertiblePolynomial.from_exponent_matrix([rows[r] for r in order])
    yield from tied_sums()


FIELDS = ("N", "E", "summands", "q", "charge", "head", "D", "Dq")


def derived_polynomials():
    """Wᵗ, the atomic pieces and their transposes of every derived case,
    each object once."""
    for W in derived_cases():
        pieces = list({id(P): P for P in (W.piece(i)[0] for i in range(W.N))}.values())
        yield from (W.transpose(), *pieces, *(piece.transpose() for piece in pieces))


def test_derived_polynomials_equal_their_parse():
    """Wᵗ and the atomic pieces are built from summands read off W, not
    parsed; each equals, field for field, what `from_json` makes of its
    own E, down to the summand order and the rotation of every loop."""
    checked = 0
    for P in derived_polynomials():
        parsed = from_dense(P.E)
        assert [getattr(P, k) for k in FIELDS] + [dense_inverse(P)] == \
            [getattr(parsed, k) for k in FIELDS] + [dense_inverse(parsed)], P.to_string()
        checked += 1
    assert checked > 2000


def test_derived_inverses_equal_elimination():
    """Derived polynomials take E⁻¹ from the same closed forms as a parse,
    so the field comparison above cannot catch a wrong closed form: each
    one's E⁻¹, D and weights are checked against elimination on its own E."""
    checked = 0
    for P in derived_polynomials():
        _assert_inverse_by_elimination(P)
        checked += 1
    assert checked > 2000


def test_equality_and_hash_read_only_the_polynomial():
    """==, != and hash read N, the summands and head, which repr shows: a
    polynomial whose memo holds its ring, transpose and atomic pieces equals
    a fresh parse of its text, and its rows in another order, or its plain
    tuple form, make an unequal value; != is always the negation of ==."""
    for text in ["x1^3*x2 + x2^4", "x1^2*x2 + x2^3*x3 + x3^4*x1", "x1^2*x2 + x2^2*x1 + x3^4"]:
        W = InvertiblePolynomial.from_string(text)
        ring_of(W)
        W.transpose()
        for i in range(W.N):
            W.piece(i)
        fresh = InvertiblePolynomial.from_string(text)
        swapped = from_dense(W.E[1:] + W.E[:1])
        assert (W == fresh, W != fresh, hash(W) == hash(fresh)) == (True, False, True)
        assert (W == swapped, W != swapped) == (False, True)
        assert (W == tuple(W.E), W != tuple(W.E)) == (False, True)
        assert repr(W) == repr(fresh) == \
            f"InvertiblePolynomial(N={W.N}, summands={W.summands!r}, head={W.head})"
        assert "E" not in fresh.memo


def test_records_are_immutable():
    W = InvertiblePolynomial.from_string("x1^3*x2 + x2^4")
    for obj, name, value in [(W, "N", 3), (W, "E", ()), (W, "D", 1), (W, "Dq", (1, 1)),
                             (W.summands[0], "kind", "loop"), (W.summands[0], "exponents", (2, 2))]:
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        assert getattr(obj, name) != value


def test_verify_stays_linear_in_memory():
    """W is stored as its summands, so reading x1^3 + … + x3000^3 and
    verifying it holds no N×N table: the traced peak stays below 20 MiB
    (an N×N table of small ints alone takes some 70 MiB here), and
    `verify` never builds the dense E of W."""
    text = " + ".join(f"x{i}^3" for i in range(1, 3001))
    tracemalloc.start()
    try:
        W = InvertiblePolynomial.from_string(text)
        report = cli.verification_report(W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["overall"] == "pass"
    assert peak < 20 * 2**20
    assert "E" not in W.memo
    # nor the E of any piece it verified, or of that piece's transpose
    pieces = [P for key, P in W.memo.items() if key[0] == "piece"]
    assert pieces and all("transpose" in P.memo for P in pieces)
    assert [P for P in pieces if "E" in P.memo or "E" in P.transpose().memo] == []


def test_axioms_and_jacobi_never_build_E():
    """`axioms` with no --insertions reads each M_i off x_i's summand, and
    the ring reads its relations off the summands: on a wide direct sum
    neither puts the N×N view E in W's memo."""
    W = InvertiblePolynomial.from_string(" + ".join(
        f"x{3 * k + 1}^2*x{3 * k + 2} + x{3 * k + 2}^3*x{3 * k + 3} + x{3 * k + 3}^4*x{3 * k + 1}"
        for k in range(100)))
    candidates = list(cli._standard_candidates(W))
    ring_of(W)
    assert len(candidates) == W.N
    assert "E" not in W.memo


def test_readers_of_the_summands_match_the_dense_rows():
    """`rows`, `_partials` and `final_type_insertions` read W's summands
    through `head`.  On seeded shuffled direct sums and their transposes
    (whose rows are the input's columns) they equal the formulas read off
    the dense rows: the rows themselves, ∂_j f term by term, in row order,
    and M_i as column i."""
    rng = random.Random("summand readers")
    for _ in range(1000):
        rows = _shuffled_sum(rng)
        W = from_dense(rows)
        for f, E in ((W, rows), (W.transpose(), [list(c) for c in zip(*rows)])):
            assert f.rows() == [{j: e for j, e in enumerate(row) if e} for row in E]
            assert f.E == tuple(map(tuple, E))
            expected = []
            for j in range(f.N):
                d = {}
                for row in E:
                    if row[j] > 0:
                        m = list(row)
                        m[j] -= 1
                        d[tuple(m)] = row[j]
                expected.append(list(d.items()))
            assert [list(d.items()) for d in _partials(f)] == expected
            for i in range(1, f.N + 1):
                x, s, m = final_type_insertions(f, i)
                assert m == tuple(row[i - 1] for row in E)
                assert x == tuple(int(r == f.head[i - 1]) for r in range(f.N))
                assert s == tuple(e - 2 * xr for e, xr in zip(m, x))


# ---------------------------------------------------------------------------
# integer grading

PARSED = [
    "x1^3*x2 + x2^4",
    " x1^2 * x2  +  x2^3 ",
    "x1*x1 + x1*x2^2",
    "x1^2*x2 + x2^2*x1 + x3^4",
    "x1^2 + x1*x2^3",
    "x1^4*x2 + x2^2*x3 + x3^3*x1",
    "x1^3*x2 + x2^2*x3 + x3^5 + x4^2*x5 + x5^3*x4 + x6^7",
    "x1^2*x2 + x2^3*x3 + x3^4*x1",
    "x1^2",
    "x1^2*x2 + x2^2",
    "x1^3*x2 + x2^2*x3 + x3^4",
    "x1^2*x2 + x2^3*x3 + x3^2*x1",
    "x1^3*x2 + x2^2*x3 + x3^2*x1",
]


def acceptance_polynomials():
    """The atomic shapes the acceptance sweeps run, with their transposes."""
    shapes = [("fermat", (a,)) for a in range(2, 10)]
    shapes += [(kind, a) for kind in ("chain", "loop") for n in (2, 3, 4)
               for a in cartesian(range(2, 6), repeat=n)]
    for kind, a in shapes:
        s = AtomicSummand(kind, a, tuple(range(len(a))))
        W = from_dense(reassemble([s], len(a)))
        yield W
        yield W.transpose()


def test_integer_grading():
    """q_i = Dq_i/D, D·ĉ = N·D − 2ΣDq, and degree is D·Σ m_i q_i."""
    polys = [InvertiblePolynomial.from_string(t) for t in PARSED]
    for W in polys + list(acceptance_polynomials()):
        assert tuple(F(x, W.D) for x in W.Dq) == W.q
        assert W.charge * W.D == W.N * W.D - 2 * sum(W.Dq)
        m = tuple(range(1, W.N + 1))
        assert W.degree(m) == W.D * sum(mi * qi for mi, qi in zip(m, W.q))


# ---------------------------------------------------------------------------
# closed-form inverse entries vs. generic elimination

atomic_exps = st.lists(st.integers(2, 6), min_size=1, max_size=5)


def _det(kind, a):
    """`AtomicSummand.det` of the piece with exponents ``a``; a chain of
    length one is a Fermat."""
    kind = "fermat" if kind == "chain" and len(a) == 1 else kind
    return AtomicSummand(kind, tuple(a), tuple(range(len(a)))).det


@given(atomic_exps)
def test_chain_inverse_closed_form(a):
    """`inverse_times` on the chain x_1^{a_1}x_2 + … + x_N^{a_N}, column by
    column, against elimination."""
    E = [[0] * len(a) for _ in a]
    for i, ai in enumerate(a):
        E[i][i] = ai
        if i + 1 < len(a):
            E[i][i + 1] = 1
    W, det = from_dense(E), _det("chain", a)
    assert det == math.prod(a) == W.D
    assert [[F(x, det) for x in row] for row in dense_inverse(W)] == linalg.invert(E)


@given(st.lists(st.integers(2, 6), min_size=2, max_size=5))
def test_loop_inverse_closed_form(a):
    """`inverse_times` on the loop x_1^{a_1}x_2 + … + x_N^{a_N}x_1, column
    by column, against elimination."""
    n = len(a)
    E = [[0] * n for _ in range(n)]
    for i, ai in enumerate(a):
        E[i][i] = ai
        E[i][(i + 1) % n] = 1
    W, det = from_dense(E), _det("loop", a)
    assert det == math.prod(a) - (-1) ** n == W.D
    assert [[F(x, det) for x in row] for row in dense_inverse(W)] == linalg.invert(E)


@st.composite
def direct_sum(draw):
    """1–3 Fermat/chain/loop summands with exponents 2–6 and N ≤ 8, on
    relabelled variables, with the monomials shuffled."""
    pieces, n = [], 0
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["fermat", "chain", "loop"]))
        k = 1 if kind == "fermat" else draw(st.integers(2, 8))
        if n + k > 8:
            break
        pieces.append((kind, draw(st.lists(st.integers(2, 6), min_size=k, max_size=k))))
        n += k
    labels = draw(st.permutations(range(n)))
    summands, at = [], 0
    for kind, a in pieces:
        summands.append(AtomicSummand(kind, tuple(a), tuple(labels[at:at + len(a)])))
        at += len(a)
    return draw(st.permutations(reassemble(summands, n)))


@given(direct_sum())
def test_closed_form_inverse_equals_elimination(E):
    """E⁻¹ read off the summands equals generic elimination, for W and Wᵗ:
    D is the lcm of the summand determinants and of E⁻¹'s denominators,
    and `inverse_times` is D·E⁻¹.  head[v] is the row of E in which x_v carries
    its exponent."""
    W = from_dense(E)
    _assert_inverse_by_elimination(W)
    _assert_inverse_by_elimination(W.transpose())


def _assert_inverse_by_elimination(W):
    """W's D, D·E⁻¹ and Dq against `linalg.invert` of its E."""
    inverse = linalg.invert(W.E)
    dets = [math.prod(s.exponents) - (s.kind == "loop") * (-1) ** len(s.exponents)
            for s in W.summands]
    assert W.D == math.lcm(*dets) == math.lcm(*(x.denominator for row in inverse
                                                for x in row))
    assert [list(row) for row in dense_inverse(W)] == [[W.D * x for x in row] for row in inverse]
    assert [list(row) for row in W.inverse_exponents()] == inverse
    assert list(W.Dq) == [W.D * sum(row) for row in inverse]
    assert sorted(W.head) == list(range(W.N))
    assert all(W.E[W.head[v]][v] >= 2 for v in range(W.N))


def test_loop_inverse_hand_checked():
    # loop x1^2*x2 + x2^4*x1: det 7, inverse (1/7)[[4,-1],[-1,2]]
    assert _det("loop", [2, 4]) == 7
    W = from_dense([[2, 1], [1, 4]])
    assert (W.D, dense_inverse(W)) == (7, ((4, -1), (-1, 2)))


def test_loop_weights_hand_checked():
    W = InvertiblePolynomial.from_string("x1^2*x2 + x2^3*x3 + x3^2*x1")
    assert W.q == (F(5, 13), F(3, 13), F(4, 13))
    W2 = InvertiblePolynomial.from_string("x1^3*x2 + x2^2*x3 + x3^2*x1")
    assert W2.q == (F(3, 13), F(4, 13), F(5, 13))


@given(atomic_exps)
def test_fermat_chain_weights_positive_bounded(a):
    kind = "fermat" if len(a) == 1 else "chain"
    W = from_dense(reassemble([AtomicSummand(kind, tuple(a), tuple(range(len(a))))], len(a)))
    q = [F(x, W.D) for x in W.inverse_times((1,) * len(a))]
    assert all(0 < qi <= F(1, 2) for qi in q)


@pytest.mark.parametrize("kind, exponents, variables", [
    ("cycle", (3, 3), (0, 1)),   # unknown kind
    ("chain", (3, 3), (0,)),     # one exponent per variable
    ("loop", (3, 1), (0, 1)),    # exponent below 2
    ("fermat", (3, 3), (0, 1)),  # a Fermat with two variables
    ("chain", (3,), (0,)),       # a chain with one variable
])
def test_atomic_summand_checks_are_explicit(kind, exponents, variables):
    """`InvertiblePolynomial.piece` and the transpose build summands outside
    the parser, so their invariants are checks, not asserts."""
    with pytest.raises(WrongConfiguration):
        AtomicSummand(kind, exponents, variables)
