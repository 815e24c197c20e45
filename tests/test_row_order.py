"""The order of W's monomials does not matter.

Permuting the rows of E relabels the variables of the transpose Wᵗ and
nothing else: variable r of Wᵗ is row r of E, and x_i of W pairs with
the row it heads, ``W.head[i]``.  So `axioms`, `mirror` and `wdvv` on a
row-permuted input must give the output of the unpermuted input once the
variables of Wᵗ are renamed back.
"""

import contextlib
import functools
import io
import itertools
import json
import random
import re
from fractions import Fraction

import pytest

from lgmirror import cli
from lgmirror.amodel import (SYMMETRIC_LOOP_SEED, four_point_report, wdvv_case1,
                             wdvv_case2)
from lgmirror.bmodel import good_basis_check, sg_four_point
from lgmirror.mirror import admissible_target
from lgmirror.poly import InvertiblePolynomial, format_monomial, parse_exponent_matrix

POLYNOMIALS = [
    "x1^3*x2+x2^4",
    "x1^3*x2+x2^2*x1",
    "x1^2*x2+x2^3*x1",
    "x1^3+x2^2*x3+x3^2*x2",
    "x1^3*x2+x2^3+x3^4",
    "x1^4+x2^4",
    "x1^3+x2^3+x3^3",
    "x1^2*x2+x2^3*x3+x3^2*x1",
    "x1^3*x2+x2^3*x3+x3^3",
    "x1^4+x2^3*x3+x3^3*x2",
    "x1^3*x2+x2^3*x3+x3^3*x1",
]
COMMANDS = ("axioms", "mirror", "wdvv")
# one rendered insertion: a monomial with an optional rational factor, or a constant
INSERTION = re.compile(r"(?:(-?\d+(?:/\d+)?)\*)?(x\d+(?:\^\d+)?(?:\*x\d+(?:\^\d+)?)*)|(-?\d+(?:/\d+)?)")


def _cases():
    for text in POLYNOMIALS:
        n = len(parse_exponent_matrix(text))
        for order in itertools.permutations(range(n)):
            if order != tuple(range(n)):
                for command in COMMANDS:
                    yield text, order, command


@functools.cache
def run_json(command, text):
    """(exit code, parsed --json output or None, stderr) of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--expr", text, "--json"])
    return code, json.loads(out.getvalue()) if out.getvalue() else None, err.getvalue()


def permuted(text, order):
    """The polynomial with row k of its exponent matrix taken from row order[k]."""
    E = InvertiblePolynomial.from_string(text).E
    return " + ".join(format_monomial(E[r]) for r in order)


class Relabel:
    """Rename the variables of Wᵗ for the permuted input back to the
    unpermuted ones: variable k + 1 of the permuted transpose is row
    order[k] of the original E, so it becomes x_{order[k] + 1}."""

    def __init__(self, order):
        self.order = order

    def exponents(self, m):
        out = [0] * len(m)
        for k, e in enumerate(m):
            out[self.order[k]] = e
        return tuple(out)

    def monomial(self, text):
        """A rendered monomial of Wᵗ, as the exponent tuple it is renamed to."""
        return self.exponents(cli.parse_monomial(text, len(self.order)))

    def vector(self, values):
        return [values[r] for r in sorted(range(len(values)), key=self.order.__getitem__)]

    def insertion(self, text):
        """A rendered insertion c*m as (renamed m, c)."""
        match = INSERTION.fullmatch(text)
        assert match, text
        scale, monomial, constant = match.groups()
        if constant is not None:
            return (0,) * len(self.order), Fraction(constant)
        return self.monomial(monomial), Fraction(scale or 1)

    def correlator(self, text):
        """'<a, b, c, d>' as the multiset of its renamed insertions; a
        correlator with a zero insertion vanishes."""
        items = text.split(", ")
        if "0" in items:
            return "0"
        return tuple(sorted(self.insertion(item) for item in items))

    def correlators(self, text):
        return [self.correlator(c) for c in re.findall(r"<([^>]*)>", text)]


def terms(polynomial):
    """A polynomial string of W as the set of its monomials: a row
    permutation only reorders them."""
    return sorted(sorted(m.items()) for m in parse_exponent_matrix(polynomial))


def normalize(command, text, doc, order):
    """The parts of the --json document of ``command`` on ``text`` that a
    row permutation may not change, with the variables of Wᵗ renamed
    through ``order``."""
    if doc is None:
        return None
    rl = Relabel(order)
    if command == "axioms":
        return {
            "polynomial": terms(doc["polynomial"]),
            "candidates": [
                {**c,
                 "insertions": [rl.monomial(m) for m in c["insertions"]],
                 "ell": rl.vector(c["ell"])}
                for c in doc["candidates"]],
        }
    if command == "mirror":
        return {
            **doc,
            "polynomial": terms(doc["polynomial"]),
            "transpose": [rl.monomial(m) for m in doc["transpose"].split(" + ")],
            "transpose_weights": rl.vector(doc["transpose_weights"]),
            "classes": {
                rl.monomial(c["monomial"]): {
                    **c,
                    "monomial": None,
                    "broad_monomial": (None if c["broad_monomial"] is None
                                       else rl.monomial(c["broad_monomial"])),
                }
                for c in doc["classes"]},
            "degree_violations": sorted(
                (rl.monomial(v["monomial"]), v["wt"], v["deg"])
                for v in doc["degree_violations"]),
        }
    return {
        "polynomial": terms(doc["polynomial"]),
        "identities": [
            {**ident,
             "identity": rl.correlators(ident["identity"]),
             "solved": None if ident["solved"] is None else rl.correlators(ident["solved"])}
            for ident in doc["identities"]],
        "correlators": {tuple(rl.correlators(k)): v for k, v in doc["correlators"].items()},
    }


@pytest.mark.parametrize("text,order,command", list(_cases()))
def test_row_order_only_relabels_the_transpose(text, order, command):
    shuffled = permuted(text, order)
    code, doc, err = run_json(command, shuffled)
    base_code, base_doc, base_err = run_json(command, text)
    assert code == base_code
    assert err == base_err
    identity = tuple(range(len(order)))
    assert (normalize(command, shuffled, doc, order)
            == normalize(command, text, base_doc, identity))


def test_permuted_fermat_sum_passes_the_axioms():
    code, doc, err = run_json("axioms", "x2^3 + x1^4")
    assert (code, err) == (0, "")
    first = doc["candidates"][0]
    assert first["i"] == 1
    assert first["K"] == ["1/1", "0/1"]


def test_broad_monomial_sits_on_the_class_of_the_square_variable():
    """x2 is the variable with exponent 2 and it heads row 1, the first
    variable of the transpose: its mirror class x1 is broad."""
    code, doc, _ = run_json("mirror", "x2^2*x1 + x1^3*x2")
    assert code == 0
    broad = {c["monomial"]: c["broad_monomial"] for c in doc["classes"]}
    assert broad["x1"] == "x1"
    assert [m for m, b in broad.items() if b is not None] == ["x1"]


def _outcome(compute, *args):
    """The value of ``compute(*args)``, or the name of the error it raises."""
    try:
        return compute(*args)
    except ValueError as exc:
        return type(exc).__name__


def _report(W, i):
    result = four_point_report(admissible_target(W, i))
    return result.value, result.method


def _good_basis_counts(W):
    report = good_basis_check(W.transpose())
    return (report.mu, report.checked_pairs, report.excluded_pairs,
            sorted(c.pair_count for c in report.classes))


def library_values(W):
    """Every public A- and B-side value of W, per variable of W, and the
    counts of the good-basis check on Wᵗ; errors stand as their names."""
    return {
        "four_point": [_outcome(_report, W, i) for i in range(1, W.N + 1)],
        "sg": [_outcome(lambda i: sg_four_point(admissible_target(W, i)), i) for i in range(1, W.N + 1)],
        "wdvv1": _outcome(wdvv_case1, W, SYMMETRIC_LOOP_SEED),
        "wdvv2": _outcome(wdvv_case2, W, 2),
        "good_basis": _outcome(_good_basis_counts, W),
    }


@pytest.mark.parametrize("text", POLYNOMIALS)
def test_row_order_keeps_every_library_value(text):
    """The library functions read E's rows only through W.head, so every
    row permutation of W gives the values of the unpermuted W."""
    n = len(parse_exponent_matrix(text))
    base = library_values(InvertiblePolynomial.from_string(text))
    for order in itertools.permutations(range(n)):
        W = InvertiblePolynomial.from_string(permuted(text, order))
        assert library_values(W) == base, (text, order)


def _relabelled_loop(a, c, rows):
    """loop(a) with x_k renamed x_{k+c} (indices mod N), its monomials in
    the order ``rows``."""
    n = len(a)
    terms = [f"x{(k + c) % n + 1}^{e}*x{(k + 1 + c) % n + 1}" for k, e in enumerate(a)]
    return "+".join(terms[r] for r in rows)


def _method(a, k):
    """The A-side route at x_k of loop(a), by x_k's own exponent."""
    n, other = len(a), a[1 - k]
    if n == 2 and a[k] == 2:
        return "wdvv2" if other > 2 else "wdvv1"
    return "guere" if a[k] == 2 else "concave"


def test_loop_targets_read_the_same_in_every_presentation():
    """Every loop with N ≤ 4 and exponents 2–5, under each cyclic
    relabelling of its variables with its rows shuffled: at the same
    underlying variable, `four_point_report` gives one FourPointResult
    (value, method and decorations) and `sg_four_point` one B, and the
    method follows the target's own exponent, wherever the target sits
    in the loop's canonical rotation."""
    rng = random.Random(49)
    for n in (2, 3, 4):
        for a in itertools.product(range(2, 6), repeat=n):
            first = None
            for c in range(n):
                W = InvertiblePolynomial.from_string(_relabelled_loop(a, c, rng.sample(range(n), n)))
                targets = [admissible_target(W, (k + c) % n + 1) for k in range(n)]
                seen = [(four_point_report(t), sg_four_point(t)) for t in targets]
                first = first or seen
                assert seen == first, (a, c)
            for k, (result, b_value) in enumerate(first):
                assert result.method == _method(a, k), (a, k)
                assert result.value == -b_value
