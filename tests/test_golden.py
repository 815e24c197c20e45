"""Golden outputs of the command-line front end.

`tests/data/golden_cli.json` records, for each run of `cli.main` in this
process, its argument list, exit code, stdout and stderr, with the wall
times masked (``timing_ms`` in JSON, ``[… ms]`` in text).  A ``--json``
stdout is stored as the document it prints, which `cli.main` turns into
exactly one text, so the fixture stays small and still fixes every byte.
The runs cover every subcommand on polynomials that reach the four A-side
routes, a shuffled direct sum, a theorem-hypothesis violation (exit 3)
and a malformed input (exit 2).  A change to any byte of that output
fails here.

When an output changes on purpose, regenerate the fixture by hand:

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.regenerate()"

and review the diff of the fixture before committing it.
"""

import contextlib
import io
import json
import re
from pathlib import Path

from lgmirror import cli
from lgmirror.jacobi import ring_of
from lgmirror.poly import InvertiblePolynomial, PolynomialSyntaxError

FIXTURE = Path(__file__).resolve().parent / "data" / "golden_cli.json"

POLYNOMIALS = [
    "x1^5",                          # Fermat, concave
    "x1^3*x2+x2^4",                  # chain, concave
    "x1^3*x2+x2^3*x3+x3^2*x1",       # loop ending in a square: guere
    "x1^2*x2+x2^3*x3+x3^4*x1",       # guere at x1, concave at x2 and x3
    "x1^3*x2+x2^2*x3+x3^4*x4+x4^2*x1",  # guere at x2 and x4
    "x1^2*x2+x2^2*x1",               # wdvv1
    "x1^3*x2+x2^2*x1",               # wdvv2
    "x2^3+x1^4",                     # two Fermat summands
    "x2^3+x3^3*x1+x1^2*x3",          # shuffled direct sum of a Fermat and a loop
    "x1^2*x2+x2^2",                  # a weight-1/2 variable: exit 3
    "x1^3+*x2",                      # malformed: exit 2
]

_MASKS = [
    (re.compile(r'"timing_ms": [0-9.eE+-]+'), '"timing_ms": "<masked>"'),
    (re.compile(r"\[[0-9.eE+-]+ ms\]"), "[<masked> ms]"),
]


def _mask(text):
    for pattern, replacement in _MASKS:
        text = pattern.sub(replacement, text)
    return text


def run(argv):
    """One in-process `cli.main` run: (exit code, masked stdout, masked stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, _mask(out.getvalue()), _mask(err.getvalue())


def _runs(expr):
    """The argument lists recorded for one polynomial."""
    try:
        W = InvertiblePolynomial.from_string(expr)
    except PolynomialSyntaxError:
        n, mu = 1, 0
    else:
        n, mu = W.N, ring_of(W).mu
    source = ["--expr", expr]
    yield ["verify", *source, "--json", "--trace"]
    yield ["verify", *source, "--trace"]
    for i in range(1, n + 1):
        yield ["correlator", *source, "--target", str(i), "--json", "--trace"]
    yield ["axioms", *source, "--json"]
    yield ["mirror", *source, "--json"]
    yield ["classify", *source, "--json", "--trace"]
    if mu <= 30:
        yield ["jacobi", *source, "--json"]
    yield ["wdvv", *source, "--json"]


def _stored(argv, out):
    """A ``--json`` stdout as its document, any other stdout as text."""
    return json.loads(out) if out and "--json" in argv else out


def _printed(stored):
    if isinstance(stored, str):
        return stored
    return json.dumps(stored, indent=2, ensure_ascii=False) + "\n"


def regenerate():
    """Rewrite the fixture from the current code, one run per line."""
    lines = []
    for expr in POLYNOMIALS:
        for argv in _runs(expr):
            code, out, err = run(argv)
            record = [argv, code, _stored(argv, out), err]
            lines.append(json.dumps(record, ensure_ascii=False, separators=(",", ":")))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")


def test_cli_outputs_match_the_fixture():
    records = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert {code for _, code, _, _ in records} >= {0, 2, 3}
    for argv, code, out, err in records:
        assert run(argv) == (code, _printed(out), err), argv
