"""W is its summands, whatever their presentation.

Renaming W's variables and shuffling its monomials changes nothing but
labels: every subcommand must give the same values once its output is
read back in the original labels.  A variable x_i of W maps back through
the renaming.  A variable of the transpose Wᵗ is a row of E, so it maps
back through the shuffle of the monomials (`mirror`'s monomial names,
`axioms` insertions and ``ell``).  Per-target data (decorations and the
``--trace`` trails) is read on the target's piece, in its target order,
and must come out as it is.

The weight-½ refusal lists the chain tails in summand order, which a
renaming may change, so only the set of names it lists is compared.
"""

import contextlib
import io
import itertools
import json
import random
import re

import pytest

from lgmirror import cli
from lgmirror.poly import InvertiblePolynomial, format_monomial, parse_term

from support import dense_inverse


def _summand_rows(kind, exps, first):
    """The rows of one atomic summand on x_{first+1}, …, as {variable: exponent}."""
    n = len(exps)
    rows = []
    for k, a in enumerate(exps):
        nxt = k + 1 if k + 1 < n else (0 if kind == "loop" else None)
        rows.append({first + k: a, **({first + nxt: 1} if nxt is not None else {})})
    return rows


def _rows(*summands):
    rows = []
    for kind, exps in summands:
        rows += _summand_rows(kind, exps, len(rows))
    return rows


def _atomic():
    """Every Fermat, chain and loop with N ≤ 3 and exponents 2–4, each loop
    once up to rotation."""
    out = [_rows(("fermat", (a,))) for a in range(2, 5)]
    for n in (2, 3):
        for exps in itertools.product(range(2, 5), repeat=n):
            out.append(_rows(("chain", exps)))
            if exps == min(exps[r:] + exps[:r] for r in range(n)):
                out.append(_rows(("loop", exps)))
    return out


# two-summand sums, μ ≤ 64, among them two weight-½ chain tails, a
# Fermat square and the exceptional two-variable loops
SUMS = [
    (("fermat", (2,)), ("fermat", (3,))),
    (("fermat", (4,)), ("chain", (3, 2))),
    (("chain", (2, 2)), ("chain", (3, 2))),
    (("chain", (3, 3)), ("loop", (2, 2))),
    (("fermat", (3,)), ("loop", (2, 3))),
    (("loop", (2, 4)), ("loop", (3, 3))),
    (("chain", (2, 3)), ("loop", (2, 2, 3))),
    (("fermat", (4,)), ("loop", (2, 3, 2))),
    (("chain", (3, 2, 2)), ("fermat", (3,))),
    (("loop", (2, 2)), ("chain", (2, 4))),
    (("fermat", (3,)), ("fermat", (4,))),
    (("chain", (4, 3)), ("fermat", (2,))),
]

CASES = _atomic() + [_rows(*s) for s in SUMS]


def _text(rows, rename, order):
    """The polynomial of ``rows`` with x_v renamed x_{rename[v]+1} and
    row ``order[r]`` written r-th."""
    return " + ".join("*".join(f"x{rename[v] + 1}" + (f"^{e}" if e > 1 else "")
                               for v, e in sorted(rows[r].items()))
                      for r in order)


def _run(argv):
    """One in-process `cli.main` run: exit code, JSON document without
    its polynomial and timing, and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    doc = json.loads(out.getvalue()) if out.getvalue() else None
    if doc is not None:
        doc.pop("polynomial")
        doc.pop("timing_ms", None)
    return code, doc, err.getvalue()


class Back:
    """Reads one presentation's output in the original labels: original
    variable v is named x_{rename[v]+1}, and original row ``order[r]`` of E
    is written r-th, so it is variable r of Wᵗ."""

    def __init__(self, rename, order):
        self.rename, self.order = rename, order
        self.var = {rename[v] + 1: v + 1 for v in range(len(rename))}

    def vector(self, values):
        """A list indexed by W's variables, read back."""
        return [values[r] for r in self.rename]

    def rows(self, values):
        """A list indexed by Wᵗ's variables, the rows of E, read back."""
        out = [None] * len(values)
        for r, x in zip(self.order, values):
            out[r] = x
        return out

    def monomial(self, text, transpose=True):
        """A monomial of Wᵗ (or of W), read back."""
        exps = parse_term(text) if text != "1" else {}
        values = [exps.get(k + 1, 0) for k in range(len(self.rename))]
        return format_monomial(self.rows(values) if transpose else self.vector(values))

    def message(self, text):
        """W's variable names in a message read back; the names the
        weight-½ refusal lists, as a set."""
        text = re.sub(r"x(\d+)", lambda m: f"x{self.var[int(m.group(1))]}", text)
        return re.sub(r"(?<=variable\(s\) )x\d+(, x\d+)*",
                      lambda m: ", ".join(sorted(m.group(0).split(", "))), text)


def _successor(s, k):
    """The variable that variable k of a `classify` summand points at."""
    vs = s["variables"]
    return vs[k + 1] if k + 1 < len(vs) else vs[0] if s["kind"] == "loop" else None


def _outputs(rows, rename, order):
    """Every subcommand's output on one presentation, in the original labels."""
    text, back, n = _text(rows, rename, order), Back(rename, order), len(rows)
    out = {}

    def run(*argv):
        code, doc, err = _run([*argv, "--expr", text])
        return code, back.message(err), doc

    code, err, doc = run("verify", "--json", "--trace")
    out["verify"] = code, err, doc and {
        "variables": {back.var[v.pop("i")]: v for v in doc["variables"]},
        "skipped": {back.var[v.pop("i")]: {**v, "reason": back.message(v["reason"])}
                    for v in doc["skipped"]},
        "overall": (doc["overall"], doc["hypothesis_violation"]),
    }
    code, err, doc = run("classify", "--json")
    out["classify"] = code, err, doc and {
        "weights": back.vector(doc["weights"]),
        "invariants": (doc["charge"], doc["group_order"]),
        "summands": {back.var[v]: (s["kind"], a, back.var.get(_successor(s, k)))
                     for s in doc["summands"]
                     for k, (v, a) in enumerate(zip(s["variables"], s["exponents"]))},
    }
    code, err, doc = run("jacobi", "--json")
    out["jacobi"] = code, err, doc and {
        "mu": doc["mu"],
        "basis": sorted(zip((back.monomial(m, False) for m in doc["basis"]), doc["weights"])),
        "top": back.monomial(doc["top"], False),
    }
    code, err, doc = run("mirror", "--json")
    out["mirror"] = code, err, doc and {
        "weights": (back.vector(doc["weights"]), back.rows(doc["transpose_weights"])),
        "classes": sorted((back.monomial(c["monomial"]), c["weight"], back.vector(c["phases"]),
                           c["degree"], c["narrow"],
                           c["broad_monomial"] and back.monomial(c["broad_monomial"]))
                          for c in doc["classes"]),
        "violations": doc["degree_violations"],
    }
    code, err, doc = run("axioms", "--json")
    out["axioms"] = code, err, doc and {
        back.var[c["i"]]: ([back.monomial(m) for m in c["insertions"]], c["k"],
                           back.rows(c["ell"]), back.vector(c["b"]), back.vector(c["K"]),
                           c["type"], c["passes_axioms"])
        for c in doc["candidates"]}
    for v in range(n):
        code, err, doc = run("correlator", "--json", "--trace", "--target", str(rename[v] + 1))
        if doc:
            doc["i"] = back.var[doc["i"]]
        out[f"correlator x{v + 1}"] = code, err, doc
    code, err, doc = run("wdvv", "--json")
    out["wdvv"] = code, err, doc and sorted(doc["correlators"].values())
    return out


@pytest.mark.parametrize("case", range(len(CASES)),
                         ids=[_text(rows, range(len(rows)), range(len(rows))) for rows in CASES])
def test_every_subcommand_reads_the_same_in_every_presentation(case):
    rows = CASES[case]
    n = len(rows)
    rng = random.Random(case)
    base = _outputs(rows, list(range(n)), list(range(n)))
    for _ in range(2):
        rename, order = rng.sample(range(n), n), rng.sample(range(n), n)
        assert _outputs(rows, rename, order) == base, (_text(rows, rename, order), rename, order)


PARITY_FIELDS = ("N", "E", "summands", "head", "D", "Dq")


@pytest.mark.parametrize("case", range(len(CASES)),
                         ids=[_text(rows, range(len(rows)), range(len(rows))) for rows in CASES])
def test_text_and_json_read_the_same_polynomial(case):
    """Each input format is checked by its own reader, and both hand the
    same monomials on: the text of W and its exponent matrix as JSON give
    the same polynomial, field for field, in every presentation, and its
    E is the matrix the text was written from."""
    rows = CASES[case]
    n = len(rows)
    rng = random.Random(case)
    for rename, order in [(range(n), range(n))] + [(rng.sample(range(n), n), rng.sample(range(n), n))
                                                   for _ in range(2)]:
        W = InvertiblePolynomial.from_string(_text(rows, rename, order))
        dense = [[0] * n for _ in range(n)]
        for r, k in enumerate(order):
            for v, e in rows[k].items():
                dense[r][rename[v]] = e
        assert W.E == tuple(map(tuple, dense))
        text = InvertiblePolynomial.from_string(W.to_string())
        blob = InvertiblePolynomial.from_json(json.dumps({"E": [list(r) for r in W.E]}))
        fields = [[getattr(P, f) for f in PARITY_FIELDS] + [dense_inverse(P)] for P in (W, text, blob)]
        assert fields[1] == fields[2] == fields[0]
