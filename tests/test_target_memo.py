"""Each covered variable is gated once, and each correlator target is
evaluated once per atomic piece and key.

The theorem gate `admissible_target(W, i)` admits x_i as a `Target`: its
atomic piece and its place in it.  `verify` and `correlator` gate each
variable once and hand the target to both sides and to ``--trace``; the
hypothesis scan and the variable→summand map behind the gate are built
once per W.  The four-point correlator of x_i depends only on x_i's atomic
summand and its place in it, and `W.piece(v)` returns one object for all
the variables of a summand.  So `four_point_report` and `sg_four_point`
memoize their values on the piece, under ("four_point", key) and
("sg_four_point", key), where the key of a loop target is the loop's
exponents read from the variable after x_i round to x_i, and that of a
chain or Fermat target its local index; `verify` runs each private path
once per distinct (piece, key), so the variables a symmetry of W
exchanges share one evaluation.  The memo lives on the piece, which lives
on W: nothing is shared across polynomials, and a refusal or a raise
stores nothing.
"""

import sys

import pytest

from lgmirror import amodel, bmodel, cli
from lgmirror.errors import UnsupportedByTheorem, WrongConfiguration
from lgmirror.mirror import admissible_target
from lgmirror.poly import InvertiblePolynomial

FOUR_POINT = amodel._four_point_report
SG_FOUR_POINT = bmodel._sg_four_point
KEYS = ("four_point", "sg_four_point")


def W(text):
    return InvertiblePolynomial.from_string(text)


@pytest.fixture
def calls(monkeypatch):
    """Per side, the (piece, local) arguments of every private-path call."""
    seen = {"A": [], "B": []}

    def counted(side, path):
        def run(piece, local):
            seen[side].append((piece, local))
            return path(piece, local)
        return run

    monkeypatch.setattr(amodel, "_four_point_report", counted("A", FOUR_POINT))
    monkeypatch.setattr(bmodel, "_sg_four_point", counted("B", SG_FOUR_POINT))
    return seen


def _memo_keys(P):
    """The correlator keys held by the memos of P's atomic pieces."""
    return sorted(key for piece_key, piece in P.memo.items()
                  if type(piece_key) is tuple and piece_key[0] == "piece"
                  for key in piece.memo if type(key) is tuple and key[0] in KEYS)


def _memo_key(P, i):
    """The memo key of x_i's target: a loop's exponents read along the
    cycle from the variable after x_i round to x_i, else x_i's local
    index in its piece."""
    s = P.summand_of(i - 1)
    r = s.variables.index(i - 1) + 1
    return s.exponents[r:] + s.exponents[:r] if s.kind == "loop" else r


@pytest.mark.parametrize("text, verified, evaluations", [
    ("x1^3*x2+x2^3*x3+x3^3*x1", 3, 1),
    ("x1^4+x2^4+x3^5", 3, 2),
    ("x1^3*x2+x2^4*x3+x3^5*x1", 3, 3),
    ("x1^2*x2+x2^2*x1", 2, 1),
    ("x1^3*x2+x2^2*x3+x3^3*x4+x4^2*x1", 4, 2),
    # two copies of loop(2, 3), on shuffled variables
    ("x1^2*x3+x2^3*x4+x3^3*x1+x4^2*x2", 4, 2),
])
def test_verify_evaluates_each_piece_target_once(calls, text, verified, evaluations):
    P = W(text)
    report = cli.verification_report(P)
    assert report["overall"] == "pass"
    targets = [admissible_target(P, v["i"]) for v in report["variables"]]
    assert [t.key for t in targets] == [_memo_key(P, v["i"]) for v in report["variables"]]
    distinct = {(id(t.piece), t.key) for t in targets}
    assert (len(targets), len(distinct)) == (verified, evaluations)
    assert len(calls["A"]) == len(calls["B"]) == evaluations
    for v, target in zip(report["variables"], targets):
        piece, local = target
        result = FOUR_POINT(piece, local)
        assert amodel.four_point_report(target) == result
        assert v["A_value"] == cli.frac(result.value)
        assert v["B_value"] == cli.frac(SG_FOUR_POINT(piece, local))
    # the memo holds nothing a second pass could add
    cli.verification_report(P)
    assert len(calls["A"]) == len(calls["B"]) == evaluations


@pytest.mark.parametrize("text", [
    "x1^3*x2+x2^4*x3+x3^5*x4+x4^6*x5+x5^3*x1",
    # two copies of loop(2, 3), on shuffled variables
    "x1^2*x3+x2^3*x4+x3^3*x1+x4^2*x2",
    "x4^3*x2+x3^2*x1+x2^2*x4+x1^3*x3",
])
def test_every_variable_of_a_summand_gets_one_piece(text):
    """`W.piece` builds one piece per summand, in the summand's own chain
    order, whatever the variable: equal summands share it, and each
    variable's local index is its place in that order."""
    P = W(text)
    for s in P.summands:
        pieces = [P.piece(v) for v in s.variables]
        assert all(piece is pieces[0][0] for piece, _ in pieces)
        assert [local for _, local in pieces] == list(range(1, len(s.variables) + 1))
        assert pieces[0][0].summands[0].exponents == s.exponents
    assert len({id(P.piece(v)[0]) for v in range(P.N)}) == 1


@pytest.mark.parametrize("side", ["A", "B"])
def test_a_raise_is_not_stored(monkeypatch, side):
    """A private path that raises once leaves the key unset: the public
    call raises that error, and the next one on the same W computes."""
    module, name, public = {
        "A": (amodel, "_four_point_report", amodel.four_point_report),
        "B": (bmodel, "_sg_four_point", bmodel.sg_four_point),
    }[side]
    path = getattr(module, name)
    failed = []

    def flaky(piece, local):
        if not failed:
            failed.append(local)
            raise WrongConfiguration("first call fails")
        return path(piece, local)

    monkeypatch.setattr(module, name, flaky)
    P = W("x1^3*x2+x2^4")
    with pytest.raises(WrongConfiguration, match="first call fails"):
        public(admissible_target(P, 2))
    assert _memo_keys(P) == []
    assert public(admissible_target(P, 2)) == path(*P.piece(1))
    assert failed == [2]


def test_a_refused_target_stores_nothing():
    """x1 of a chain is refused by the gate, before any piece is built; x2
    shares its piece, so the piece's memo holds x2's local index only."""
    P = W("x1^3*x2+x2^4")
    with pytest.raises(UnsupportedByTheorem):
        admissible_target(P, 1)
    assert [key for key in P.memo if type(key) is tuple] == []
    target = admissible_target(P, 2)
    amodel.four_point_report(target)
    bmodel.sg_four_point(target)
    with pytest.raises(UnsupportedByTheorem):
        admissible_target(P, 1)
    assert _memo_keys(P) == [("four_point", 2), ("sg_four_point", 2)]


@pytest.fixture
def gated(monkeypatch):
    """The variable of every call to the theorem gate, made through `cli`
    or through any other lgmirror module that holds it."""
    seen = []

    def counted(P, i):
        seen.append(i)
        return admissible_target(P, i)

    holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "lgmirror"
               and getattr(m, "admissible_target", None) is admissible_target]
    assert cli in holders
    for module in holders:
        monkeypatch.setattr(module, "admissible_target", counted)
    return seen


GATED = [
    "x1^3*x2+x2^3*x3+x3^3*x1",
    # a skipped chain head, and a loop with a square
    "x1^3*x2+x2^4+x3^2*x4+x4^3*x3",
    # Fermat, chain and loop, on shuffled variables
    "x4^2*x5 + x1^3 + x3^4 + x5^3*x4 + x2^3*x3",
]


@pytest.mark.parametrize("text", GATED)
@pytest.mark.parametrize("flags", [[], ["--trace"], ["--json", "--trace"]])
def test_verify_gates_each_variable_once(gated, capsys, text, flags):
    """`verify` admits each variable once and hands the target to both
    sides and to ``--trace``: N gate calls, one per variable, in order."""
    assert cli.main(["verify", "--expr", text, *flags]) == 0
    capsys.readouterr()
    assert gated == list(range(1, W(text).N + 1))


@pytest.mark.parametrize("side", ["A", "B", "both"])
@pytest.mark.parametrize("flags", [[], ["--trace"]])
def test_correlator_gates_once(gated, capsys, side, flags):
    assert cli.main(["correlator", "--expr", GATED[2], "--target", "5", "--side", side, *flags]) == 0
    capsys.readouterr()
    assert gated == [5]


@pytest.mark.parametrize("text", GATED)
def test_the_gate_reads_w_once(monkeypatch, text):
    """The hypothesis scan and the variable→summand map behind the gate are
    built once per W, however often the gate runs."""
    built = []
    derive = InvertiblePolynomial.derive

    def counting_derive(P, key, build):
        return derive(P, key, lambda: built.append(key) or build())

    monkeypatch.setattr(InvertiblePolynomial, "derive", counting_derive)
    P = W(text)
    for _ in range(2):
        cli.verification_report(P, trace=True)
        for i in range(1, P.N + 1):
            try:
                admissible_target(P, i)
            except UnsupportedByTheorem:
                pass
    assert built.count("weight_half_tails") == built.count("summand_of") == 1


def test_nothing_is_shared_across_polynomials(calls):
    """Equal polynomials parsed twice are two memos: the second parse
    computes again."""
    text = "x1^3*x2+x2^3*x3+x3^3*x1"
    first, second = W(text), W(text)
    assert first == second
    cli.verification_report(first)
    cli.verification_report(second)
    assert len(calls["A"]) == len(calls["B"]) == 2
    assert calls["A"][0][0] is not calls["A"][1][0]
