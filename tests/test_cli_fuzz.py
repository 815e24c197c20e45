"""Fuzzing `cli.main`: malformed input exits 2 with a message; input that
happens to be a valid polynomial exits 0 or 3.  Nothing ends in a traceback
or in exit 1, which is reserved for a mirror mismatch."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from lgmirror import cli

# Bounded so that a valid draw stays small: at most 3 monomials over
# x0..x3 (x0 is out of range) with exponents ≤ 6 in every monomial, so
# N ≤ 3 and μ ≤ 6³ = 216.  The draws lean towards well-formed monomials
# x_i^a·x_j, so that valid polynomials reach every layer too.
EXPONENT = st.one_of(st.integers(2, 6), st.integers(-1, 6))
BAD_FACTOR = st.sampled_from(
    ["", "x", "x^2", "y1", "1", "x1^", "^3", "x1^2^3", "X1", "x1^+2", "x1**2"])
# no digits, so an insertion cannot lengthen a number
NOISE = st.text(alphabet="x^*+-() \t{}[]\",:", min_size=1, max_size=3)


@st.composite
def monomial(draw, index):
    head = draw(st.tuples(index, EXPONENT))
    rest = draw(st.lists(st.tuples(index, st.one_of(st.just(1), EXPONENT)),
                         max_size=2))
    factors = dict([head, *rest])        # one exponent ≤ 6 per variable
    text = [f"x{i}" if e == 1 and draw(st.booleans()) else f"x{i}^{e}"
            for i, e in factors.items()]
    if draw(st.integers(0, 3)) == 0:
        text.insert(draw(st.integers(0, len(text))), draw(BAD_FACTOR))
    return "*".join(text)


@st.composite
def expression(draw):
    n = draw(st.integers(1, 3))
    index = st.one_of(st.integers(1, n), st.integers(0, 3))
    count = draw(st.one_of(st.just(n), st.integers(1, 3)))
    text = " + ".join(draw(st.lists(monomial(index), min_size=count,
                                    max_size=count)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(NOISE) + text[at:]
    return text


ENTRY = st.one_of(EXPONENT, st.booleans(), st.none(), st.floats(),
                  st.text(max_size=2), st.just([]), st.just({}))
SQUARE = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(-1, 6), min_size=n, max_size=n),
    min_size=n, max_size=n))
MATRIX = st.one_of(SQUARE, ENTRY, st.lists(st.one_of(ENTRY, st.lists(
    ENTRY, max_size=3)), max_size=3))
DOCUMENT = st.one_of(
    MATRIX.map(lambda E: {"E": E}),
    st.dictionaries(st.text(max_size=2), MATRIX, max_size=2),
    MATRIX,
)


@st.composite
def json_text(draw):
    text = json.dumps(draw(DOCUMENT))
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


def exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    message = err.getvalue()
    assert code in (0, 2, 3), (argv, code, message)
    assert "Traceback" not in message
    if message.startswith(("error:", "usage:", "unsupported:")):
        # a failed run prints its message and nothing on stdout
        assert out.getvalue() == "", (argv, message)
    if code == 2:
        assert message.startswith(("error:", "usage:")), message
    if code == 3:
        assert message.startswith("unsupported:") or "skipped" in out.getvalue()
    return code


@settings(max_examples=300, deadline=None)
@given(expression())
def test_verify_expr(text):
    exit_code(["verify", f"--expr={text}"])


@pytest.fixture(scope="module")
def blob_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "w.json"


@settings(max_examples=300, deadline=None)
@given(json_text())
def test_verify_input_json(blob_path, text):
    blob_path.write_text(text, encoding="utf-8")
    exit_code(["verify", "--input", str(blob_path)])


# The other subcommands.  Most malformed text stops at the parser, so half
# the draws are valid sums of Fermats, chains and loops (N ≤ 3, exponents
# 2–6) on relabelled variables, with the monomials shuffled; N ≤ 3 keeps
# μ ≤ 216.  `jacobi` runs plain: `--json` prints the μ² Gram matrix and
# `--trace` a μ² product table, which no input cap bounds yet.
@st.composite
def valid_expression(draw):
    n = draw(st.integers(1, 3))
    cuts = draw(st.lists(st.integers(1, n - 1), unique=True)) if n > 1 else []
    sizes = [b - a for a, b in zip([0, *sorted(cuts)], [*sorted(cuts), n])]
    labels = draw(st.permutations(range(1, n + 1)))
    terms, at = [], 0
    for k in sizes:
        vs = labels[at:at + k]
        at += k
        loop = k > 1 and draw(st.booleans())
        for pos, v in enumerate(vs):
            term = f"x{v}^{draw(st.integers(2, 6))}"
            if pos + 1 < k or loop:
                term += f"*x{vs[(pos + 1) % k]}"
            terms.append(term)
    return " + ".join(draw(st.permutations(terms)))


ANY_EXPRESSION = st.one_of(expression(), valid_expression())
INSERTION = st.one_of(
    st.just("1"),
    st.builds(lambda i, e: f"x{i}^{e}", st.integers(0, 4), st.integers(0, 3)),
    st.builds(lambda i, j: f"x{i}*x{j}", st.integers(0, 4), st.integers(0, 4)),
    st.integers(0, 4).map(lambda i: f"x{i}"),
    BAD_FACTOR,
)
INSERTIONS = st.lists(INSERTION, max_size=6).map(",".join)


@pytest.mark.parametrize("command", [["classify", "--trace"], ["mirror"], ["jacobi"],
                                     ["axioms"], ["wdvv"]], ids=" ".join)
@settings(max_examples=100, deadline=None)
@given(text=ANY_EXPRESSION)
def test_subcommand_expr(command, text):
    exit_code([*command, f"--expr={text}"])


@settings(max_examples=100, deadline=None)
@given(ANY_EXPRESSION, INSERTIONS)
def test_axioms_insertions(text, insertions):
    exit_code(["axioms", f"--expr={text}", f"--insertions={insertions}"])


@settings(max_examples=100, deadline=None)
@given(ANY_EXPRESSION, st.integers(-1, 4), st.sampled_from(["A", "B", "both"]))
def test_correlator_target(text, target, side):
    exit_code(["correlator", f"--expr={text}", f"--target={target}",
               f"--side={side}"])
