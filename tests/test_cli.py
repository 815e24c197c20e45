"""Command-line interface: exit codes, JSON reports, tracing."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lgmirror
from lgmirror import amodel, cli, mirror, wdvv
from lgmirror.errors import WrongConfiguration
from lgmirror.groups import identity
from lgmirror.jacobi import JacobiRing, ring_of
from lgmirror.poly import InvertiblePolynomial

RATIONAL = re.compile(r"^-?\d+/\d+$")

# a numeral past Python's 4300-digit int-string limit
LONG = "9" * 5000


def run(capsys, *argv):
    """Invoke the CLI in-process; return (exit code, stdout, stderr)."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out) if out else None, err


def rationals_only(node):
    """Every leaf that looks numeric must be an int or a 'p/q' string."""
    if isinstance(node, dict):
        for v in node.values():
            rationals_only(v)
    elif isinstance(node, list):
        for v in node:
            rationals_only(v)
    else:
        assert not isinstance(node, float), f"decimal leaked into JSON: {node}"


class TestVerifyExitCodes:
    def test_cubic_fermat_passes(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--expr", "x1^3")
        assert code == 0
        assert doc["overall"] == "pass"
        (v,) = doc["variables"]
        assert v == {
            "i": 1,
            "q_i": "1/3",
            "A_value": "1/3",
            "B_value": "-1/3",
            "method_A": "concave",
            "matched": True,
        }

    def test_symmetric_loop_passes_via_wdvv1(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--expr", "x1^2*x2 + x2^2*x1")
        assert code == 0
        assert [v["method_A"] for v in doc["variables"]] == ["wdvv1", "wdvv1"]
        assert all(v["A_value"] == "1/3" and v["matched"] for v in doc["variables"])

    def test_weight_half_chain_exits_3(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--expr", "x1^2*x2+x2^2*x3+x3^2")
        assert code == 3
        assert doc["overall"] == "fail"
        assert doc["hypothesis_violation"] is True
        assert doc["variables"] == []
        assert [s["i"] for s in doc["skipped"]] == [1, 2, 3]
        assert all("weight 1/2" in s["reason"] for s in doc["skipped"])

    def test_weight_half_fermat_exits_3(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--expr", "x1^2")
        assert code == 3
        assert doc["skipped"][0]["q_i"] == "1/2"

    def test_garbage_exits_2(self, capsys):
        for expr in ("x1^3 + not a poly", f"x1^{LONG}", f"x{LONG}^3",
                     f'{{"E": [[{LONG}]]}}'):
            code, out, err = run(capsys, "verify", "--expr", expr)
            assert code == 2
            assert out == ""
            assert err.startswith("error:")

    def test_long_numeral_has_one_message_for_text_and_json(self, capsys):
        errs = [run(capsys, "verify", "--expr", expr)[2]
                for expr in (f"x1^{LONG}", f'{{"E": [[{LONG}]]}}')]
        assert errs == ["error: numeral of 5000 digits is too long\n"] * 2

    def test_negative_exponent_exits_2(self, capsys):
        assert run(capsys, "verify", "--expr", '{"E": [[-1]]}') == (
            2, "", "error: negative exponent\n")

    def test_non_invertible_shape_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--expr", "x1^3 + x1^2*x2 + x2^3")
        assert code == 2
        assert err

    def test_skipped_chain_head_does_not_fail_the_run(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--expr", "x1^3*x2+x2^4")
        assert code == 0
        assert doc["overall"] == "pass"
        assert [v["i"] for v in doc["variables"]] == [2]
        assert [s["i"] for s in doc["skipped"]] == [1]
        assert doc["hypothesis_violation"] is False

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        # The identity must never fail on honest inputs, so fault-inject the
        # B side to check the reporting path.
        monkeypatch.setattr(cli, "sg_four_point", lambda target: Fraction(1, 7))
        code, doc, _ = run_json(capsys, "verify", "--expr", "x1^3")
        assert code == 1
        assert doc["overall"] == "fail"
        assert doc["variables"][0]["matched"] is False

    def test_no_arguments_is_a_usage_error(self, capsys):
        assert run(capsys, "verify")[0] == 2
        assert run(capsys)[0] == 2
        assert run(capsys, "frobnicate", "--expr", "x1^3")[0] == 2

    def test_expr_and_input_are_mutually_exclusive(self, capsys, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("x1^3")
        code, _, _ = run(capsys, "verify", "--expr", "x1^3", "--input", str(p))
        assert code == 2


def count_ring_builds(monkeypatch) -> list:
    """Record every JacobiRing built."""
    built = []
    init = JacobiRing.__init__

    def counting_init(self, f):
        built.append(f)
        init(self, f)

    monkeypatch.setattr(JacobiRing, "__init__", counting_init)
    return built


def test_verify_builds_one_ring_per_piece(monkeypatch):
    """The B side reduces in Jac of the piece's transpose, and the A side
    reads its top in closed form, so it needs no ring: the four variables
    of the loop share one piece, so one ring build."""
    built = count_ring_builds(monkeypatch)
    W = InvertiblePolynomial.from_string("x1^5*x2+x2^6*x3+x3^7*x4+x4^8*x1")
    assert cli.verification_report(W)["overall"] == "pass"
    assert len(built) == 1


@pytest.mark.parametrize("expr", [
    "x1^1000000",
    "x1^5*x2+x2^5*x3+x3^5*x4+x4^5*x5+x5^5*x1",        # μ = 3126
    "x1^4 + x2^3*x3 + x3^4 + x4^3*x5 + x5^3*x4",
])
def test_verify_lists_no_basis(expr):
    """The B side needs only basis membership, so verify never lists the
    standard basis of any piece's transposed ring."""
    W = InvertiblePolynomial.from_string(expr)
    assert cli.verification_report(W)["overall"] == "pass"
    for i in range(W.N):
        piece, _ = W.piece(i)
        assert "basis" not in ring_of(piece.transpose()).__dict__


@pytest.mark.parametrize("expr", [
    "x1^5*x2+x2^6*x3+x3^7*x4+x4^8*x1",     # concave
    "x1^3*x2+x2^3*x3+x3^2*x1",             # guere
    "x1^3*x2+x2^2*x1",                     # wdvv2
])
def test_a_side_builds_no_ring(monkeypatch, expr):
    built = count_ring_builds(monkeypatch)
    W = InvertiblePolynomial.from_string(expr)
    for i in range(1, W.N + 1):
        amodel.four_point_report(mirror.admissible_target(W, i)).value
    assert built == []


@pytest.mark.parametrize("expr, pieces, reports", [
    # one piece for the loop's four variables, each concave
    ("x1^5*x2+x2^6*x3+x3^7*x4+x4^8*x1", 1, 4),
    # Fermat, chain (one piece for both variables, x2 skipped), and the
    # loop (one piece; wdvv2 at x4, concave at x5)
    ("x4^2*x5 + x1^3 + x3^4 + x5^3*x4 + x2^3*x3", 3, 4),
])
def test_verify_derives_each_polynomial_once(monkeypatch, capsys, expr, pieces, reports):
    """One parse, one build per distinct atomic piece and one per its
    transpose, and one set of boundary decorations per computed report.
    The pieces and transposes are read off W and are never parsed."""
    parsed, built, decorated = [], [], []
    parse = InvertiblePolynomial.from_exponent_matrix
    derive = InvertiblePolynomial.derive
    decorations = amodel.boundary_decorations

    def counting_parse(E):
        parsed.append(E)
        return parse(E)

    def counting_derive(W, key, build):
        return derive(W, key, lambda: built.append(key) or build())

    def counting_decorations(W, sectors):
        decorated.append(W)
        return decorations(W, sectors)

    monkeypatch.setattr(InvertiblePolynomial, "from_exponent_matrix",
                        staticmethod(counting_parse))
    monkeypatch.setattr(InvertiblePolynomial, "derive", counting_derive)
    monkeypatch.setattr(amodel, "boundary_decorations", counting_decorations)
    code, doc, _ = run_json(capsys, "verify", "--expr", expr)
    assert code == 0
    assert len(doc["variables"]) == reports
    assert len(parsed) == 1
    assert len([key for key in built if key[0] == "piece"]) == pieces
    assert built.count("transpose") == pieces
    assert len(decorated) == reports


def test_a_side_degree_bookkeeping_is_checked_not_asserted(monkeypatch, capsys):
    """A smooth-fiber degree that disagrees with the boundary components is
    an error that survives `python -O`, not an AssertionError."""
    degrees = amodel.line_bundle_degrees

    def shifted(W, sectors):
        first, *rest = degrees(W, sectors)
        return [first + 1, *rest]

    monkeypatch.setattr(amodel, "line_bundle_degrees", shifted)
    W = InvertiblePolynomial.from_string("x1^3*x2 + x2^4")
    with pytest.raises(WrongConfiguration):
        amodel.four_point_report(mirror.admissible_target(W, 2))
    code, _, err = run(capsys, "correlator", "--expr", "x1^3*x2 + x2^4",
                       "--target", "2", "--side", "A")
    assert code == 2
    assert err.startswith("error:")


NO_NUMPY = """
import sys
sys.modules["numpy"] = None          # any `import numpy` now raises ImportError
import lgmirror.cli
from lgmirror.bmodel import good_basis_check
from lgmirror.poly import InvertiblePolynomial
f = InvertiblePolynomial.from_string("x1^3*x2 + x2^3*x3 + x3^3*x1").transpose()
assert good_basis_check(f).passed
sys.exit(lgmirror.cli.main(["verify", "--expr", "x1^3*x2 + x2^4"]))
"""


def python(*args):
    """Run a fresh interpreter that imports this checkout's lgmirror."""
    src = str(Path(lgmirror.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_runs_without_numpy():
    proc = python("-c", NO_NUMPY)
    assert proc.returncode == 0, proc.stderr
    assert "overall: pass" in proc.stdout


@pytest.mark.parametrize("expr", ["x1^3*x2+x2^4*x3+x3^3*x1", "x1^3*x2 + x2^4",
                                  "x1^3*x2+x2^3*x3+x3^2*x1", "x1^3*x2+x2^2*x1"])
def test_results_do_not_depend_on_asserts(expr):
    """`python -O` strips every assert: verify must not lean on one."""
    def verify(*flags):
        proc = python(*flags, "-m", "lgmirror.cli", "verify", "--expr", expr, "--json")
        doc = json.loads(proc.stdout)
        doc.pop("timing_ms", None)
        return proc.returncode, doc

    plain = verify()
    assert plain[0] == 0
    assert verify("-O") == plain


class TestInputHandling:
    def test_expression_file(self, capsys, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("x1^5\n")
        code, doc, _ = run_json(capsys, "verify", "--input", str(p))
        assert code == 0
        assert doc["polynomial"] == "x1^5"

    def test_exponent_matrix_json_file(self, capsys, tmp_path):
        p = tmp_path / "w.json"
        p.write_text('{"E": [[3, 1], [0, 4]]}')
        code, doc, _ = run_json(capsys, "verify", "--input", str(p))
        assert code == 0
        assert doc["polynomial"] == "x1^3*x2 + x2^4"

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--input", str(tmp_path / "nope"))
        assert code == 2
        assert "cannot read" in err

    def test_bad_json_file_exits_2(self, capsys, tmp_path):
        p = tmp_path / "w.json"
        p.write_text('{"E": oops')
        assert run(capsys, "verify", "--input", str(p))[0] == 2

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        p = tmp_path / "w.txt"
        p.write_bytes(b"\xff\xfex1^3")
        code, out, err = run(capsys, "verify", "--input", str(p))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read")

    def test_deeply_nested_json_exits_2(self, capsys):
        blob = '{"E": ' + "[" * 100_000 + "]" * 100_000 + "}"
        code, out, err = run(capsys, "verify", "--expr", blob)
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad JSON")

    @pytest.mark.parametrize("blob", [
        '{"E": "abc"}',
        '{"E": [3]}',
        '{"E": [[3.5]]}',
        '{"E": [["3"]]}',
        '{"E": [[3, true], [0, 4]]}',
        pytest.param(f'{{"E": [[{LONG}]]}}', id="long-numeral"),
    ])
    def test_malformed_exponent_matrix_exits_2(self, capsys, tmp_path, blob):
        p = tmp_path / "w.json"
        p.write_text(blob)
        code, out, err = run(capsys, "verify", "--input", str(p))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestReportShape:
    def test_round_trip_is_stable(self, capsys):
        _, doc, _ = run_json(capsys, "verify", "--expr", "x1^3*x2+x2^3*x1")
        assert json.loads(json.dumps(doc)) == doc

    def test_all_rationals_are_strings(self, capsys):
        for args in (
            ("verify", "--expr", "x1^3*x2+x2^3*x1"),
            ("classify", "--expr", "x1^4+x2^4", "--trace"),
            ("mirror", "--expr", "x1^3*x2+x2^4"),
            ("jacobi", "--expr", "x1^3*x2+x2^3*x1", "--trace"),
            ("axioms", "--expr", "x1^5"),
            ("correlator", "--expr", "x1^5", "--target", "1", "--trace"),
            ("wdvv", "--expr", "x1^4+x2^5"),
        ):
            code, doc, _ = run_json(capsys, *args)
            assert code == 0
            timing = doc.pop("timing_ms", None)
            rationals_only(doc)
            assert timing is None or isinstance(timing, (int, float))

    def test_matched_means_a_equals_q_equals_minus_b(self, capsys):
        _, doc, _ = run_json(capsys, "verify", "--expr", "x1^3*x2+x2^3*x4+x3^5+x4^4")
        for v in doc["variables"]:
            assert v["matched"]
            assert Fraction(v["A_value"]) == Fraction(v["q_i"])
            assert Fraction(v["B_value"]) == -Fraction(v["q_i"])
            assert RATIONAL.fullmatch(v["A_value"])

    def test_human_output_is_ordered_by_variable(self, capsys):
        code, out, _ = run(capsys, "verify", "--expr", "x1^3*x2+x2^4")
        assert code == 0
        x1 = out.index("x1  skipped")
        x2 = out.index("x2  q = 1/4")
        assert x1 < x2
        assert "overall: pass" in out

    def test_verify_trace_payloads(self, capsys):
        _, doc, _ = run_json(capsys, "verify", "--expr", "x1^5", "--trace")
        (v,) = doc["variables"]
        assert len(v["decorations"]) == 3
        for dec in v["decorations"]:
            assert sorted(dec["splitting"][0] + dec["splitting"][1]) == [1, 2, 3, 4]
            assert all(RATIONAL.fullmatch(p) for p in dec["gamma_plus"])
        assert [s["z"] for s in v["reduction"]] == [0, 1]
        assert v["reduction"][0]["chunk"] == {"x1^5": "1/1"}
        assert v["reduction"][1]["normal_form"] == {"1": "-1/5"}

    def test_untraced_report_has_no_trace_keys(self, capsys):
        _, doc, _ = run_json(capsys, "verify", "--expr", "x1^5")
        (v,) = doc["variables"]
        assert "decorations" not in v and "reduction" not in v


class TestClassify:
    def test_two_fermat_summands(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--expr", "x1^4+x2^4")
        assert code == 0
        assert doc["summands"] == [
            {"kind": "fermat", "exponents": [4], "variables": [1]},
            {"kind": "fermat", "exponents": [4], "variables": [2]},
        ]
        assert doc["weights"] == ["1/4", "1/4"]
        assert doc["group_order"] == 16

    def test_mixed_sum(self, capsys):
        _, doc, _ = run_json(capsys, "classify", "--expr", "x1^3*x2+x2^3*x1+x3^4*x4+x4^2")
        kinds = [s["kind"] for s in doc["summands"]]
        assert kinds == ["loop", "chain"]

    def test_trace_lists_the_group(self, capsys, monkeypatch):
        monkeypatch.setenv("LGMIRROR_GROUP_CAP", "50")
        code, doc, _ = run_json(capsys, "classify", "--expr", "x1^4+x2^4", "--trace")
        assert code == 0
        assert len(doc["group"]) == 16
        assert doc["group"][0]["phases"] == ["0/1", "0/1"]
        assert doc["group"][0]["narrow"] is False  # identity fixes everything

    def test_group_cap_env_var_is_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("LGMIRROR_GROUP_CAP", "3")
        code, _, err = run(capsys, "classify", "--expr", "x1^4+x2^4", "--trace")
        assert code == 2
        assert "LGMIRROR_GROUP_CAP" in err

    def test_bad_cap_value_is_loud(self, capsys, monkeypatch):
        """A malformed cap is malformed input: exit 2 with a message."""
        for cap in ("many", "abc", "1e3", " "):
            monkeypatch.setenv("LGMIRROR_GROUP_CAP", cap)
            code, out, err = run(capsys, "classify", "--expr", "x1^3", "--trace")
            assert code == 2
            assert out == ""
            assert err == f"error: LGMIRROR_GROUP_CAP={cap!r} is not an integer\n"


def first_primes(n):
    """The first n primes, by trial division."""
    primes, k = [], 2
    while len(primes) < n:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


@pytest.mark.parametrize("exponents", [[3] * 9013, first_primes(1300)], ids=["cubes", "primes"])
def test_integers_of_any_size_print(capsys, exponents):
    """|G| and ĉ print in full past Python's 4300-digit int-string limit,
    in text, under --json and in the group cap's refusal: |G| = 3^9013 has
    4301 digits, and the primes' ĉ has a denominator of some 4600.  The
    limit is back as it was once main returns."""
    expr = " + ".join(f"x{i}^{a}" for i, a in enumerate(exponents, 1))
    order = math.prod(exponents)
    charge = sum(Fraction(a - 2, a) for a in exponents)
    limit = sys.get_int_max_str_digits()
    text = run(capsys, "classify", "--expr", expr)
    blob = run(capsys, "classify", "--expr", expr, "--json")
    capped = run(capsys, "classify", "--expr", expr, "--trace")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert len(str(order)) > limit
        if exponents[0] == 2:
            assert len(str(charge.denominator)) > limit
        assert text[0] == 0 and text[2] == ""
        assert f"\n  charge:   {charge.numerator}/{charge.denominator}\n" in text[1]
        assert text[1].endswith(f"\n  symmetry group order: {order}\n")
        assert blob[0] == 0 and blob[2] == ""
        doc = json.loads(blob[1])
        assert (doc["group_order"], doc["charge"]) == (order, f"{charge.numerator}/{charge.denominator}")
        assert capped[:2] == (2, "")
        assert capped[2].startswith(f"error: group has {order} elements, cap is ")
    finally:
        sys.set_int_max_str_digits(limit)


class TestMirror:
    def test_degree_table(self, capsys):
        code, doc, _ = run_json(capsys, "mirror", "--expr", "x1^3*x2+x2^4")
        assert code == 0
        assert doc["transpose"] == "x1^3 + x1*x2^4"
        assert doc["degree_violations"] == []
        assert len(doc["classes"]) == 10  # mu of the transpose
        for c in doc["classes"]:
            assert Fraction(c["weight"]) == Fraction(c["degree"])

    def test_broad_classes_carry_their_monomial(self, capsys):
        _, doc, _ = run_json(capsys, "mirror", "--expr", "x1^2*x2+x2^2*x1")
        broad = {c["monomial"]: c["broad_monomial"] for c in doc["classes"] if not c["narrow"]}
        assert broad == {"x1": "x1", "x2": "x2"}

    def test_weight_half_chain_exits_3(self, capsys, monkeypatch):
        """The theorem's hypotheses are checked before Wᵗ's ring is built."""
        def refuse(f):
            raise AssertionError(f"ring of {f.to_string()} built")

        monkeypatch.setattr(cli, "ring_of", refuse)
        assert run(capsys, "mirror", "--expr", "x1^3*x2+x2^2") == (
            3, "", "unsupported: chain variable(s) x2 have weight 1/2; "
                   "the mirror theorem excludes this case\n")

    def test_one_psi_call_per_basis_monomial(self, capsys, monkeypatch):
        calls, psi = [], mirror.psi
        counted = lambda W, m: calls.append(m) or psi(W, m)
        monkeypatch.setattr(cli, "psi", counted)
        monkeypatch.setattr(mirror, "psi", counted)
        code, doc, _ = run_json(capsys, "mirror", "--expr", "x1^2*x2 + x2^3*x3 + x3^2*x1")
        assert code == 0
        assert [c["monomial"] for c in doc["classes"]] == [
            cli.format_monomial(m) for m in calls]
        assert len(calls) == len(set(calls))

    def test_degree_violations_exit_1(self, capsys, monkeypatch):
        # shift the identity sector's degree by one: the two basis
        # monomials that map there no longer keep their weight
        degree = mirror.sector_degree
        monkeypatch.setattr(mirror, "sector_degree",
                            lambda W, g: degree(W, g) + (1 if g == identity(W) else 0))
        code, out, _ = run(capsys, "mirror", "--expr", "x1^3*x2+x2^3*x1")
        assert code == 1
        assert "DEGREE VIOLATIONS: 2" in out
        code, doc, _ = run_json(capsys, "mirror", "--expr", "x1^3*x2+x2^3*x1")
        assert code == 1
        assert doc["degree_violations"] == [
            {"monomial": "x2^2", "wt": "1/2", "deg": "3/2"},
            {"monomial": "x1^2", "wt": "1/2", "deg": "3/2"},
        ]


class TestJacobi:
    def test_loop_emits_nine_monomials(self, capsys):
        code, doc, _ = run_json(capsys, "jacobi", "--expr", "x1^3*x2+x2^3*x1")
        assert code == 0
        assert doc["mu"] == 9
        assert len(doc["basis"]) == 9
        assert doc["top"] == "x1^2*x2^2"
        assert len(doc["gram"]) == 9 and all(len(row) == 9 for row in doc["gram"])

    def test_gram_pairs_complementary_degrees(self, capsys):
        _, doc, _ = run_json(capsys, "jacobi", "--expr", "x1^4")
        assert doc["basis"] == ["1", "x1", "x1^2"]
        assert doc["gram"] == [
            ["0/1", "0/1", "1/1"],
            ["0/1", "1/1", "0/1"],
            ["1/1", "0/1", "0/1"],
        ]

    def test_trace_lists_products(self, capsys):
        _, doc, _ = run_json(capsys, "jacobi", "--expr", "x1^3", "--trace")
        products = {(t["left"], t["right"]): t["product"] for t in doc["products"]}
        assert products[("1", "x1")] == {"x1": "1/1"}
        assert ("x1", "x1") not in products  # x^2 = 0 in Jac(x^3)

    def test_text_output_builds_no_gram(self, capsys, monkeypatch):
        """The text report never prints the Gram matrix, so it never
        builds it."""
        def refuse(self):
            raise AssertionError("gram built for text output")

        monkeypatch.setattr(JacobiRing, "gram", refuse)
        for flags in ((), ("--trace",)):
            code, out, _ = run(capsys, "jacobi", "--expr", "x1^3*x2+x2^4", *flags)
            assert code == 0 and out.startswith("polynomial: ")

    @pytest.mark.parametrize("expr", [
        "x1^5",                    # Fermat
        "x1^3*x2+x2^4",            # chain
        "x1^2*x2+x2^3*x3+x3^2*x1",  # loop
        "x1^3*x2+x2^3*x1+x3^4",    # loop + Fermat
    ])
    def test_products_and_gram_match_ring_arithmetic(self, capsys, expr):
        """The product table equals products of reduced basis elements,
        and the Gram is the ring's own."""
        _, doc, _ = run_json(capsys, "jacobi", "--expr", expr, "--trace")
        ring = ring_of(InvertiblePolynomial.from_string(expr))
        monos = ring.basis.monomials
        names = doc["basis"]
        expected = []
        for i, a in enumerate(monos):
            for j in range(i, len(monos)):
                prod = ring.multiply(ring.reduce(a), ring.reduce(monos[j]))
                if not prod.is_zero():
                    expected.append({
                        "left": names[i], "right": names[j],
                        "product": {names[k]: cli.frac(c) for k, c in prod.coeffs},
                    })
        assert expected and doc["products"] == expected
        assert doc["gram"] == [[cli.frac(v) for v in row] for row in ring.gram()]


class TestAxioms:
    def test_fermat_final_type_is_x0(self, capsys):
        code, doc, _ = run_json(capsys, "axioms", "--expr", "x1^5")
        assert code == 0
        (r,) = doc["candidates"]
        assert r["i"] == 1
        assert r["insertions"] == ["x1", "x1", "x1^3", "x1^3"]
        assert r["K"] == ["1/1"]
        assert r["type"] == "X0"
        assert r["passes_axioms"] is True

    def test_every_admissible_candidate_listed(self, capsys):
        _, doc, _ = run_json(capsys, "axioms", "--expr", "x1^3*x2+x2^4")
        assert [r["i"] for r in doc["candidates"]] == [2]
        assert all(r["type"] == "X0" for r in doc["candidates"])

    def test_explicit_insertions(self, capsys):
        code, doc, _ = run_json(
            capsys, "axioms", "--expr", "x1^5", "--insertions", "x1,x1,x1,x1^3,x1^3"
        )
        assert code == 0
        (r,) = doc["candidates"]
        assert "i" not in r
        assert r["k"] == 5 and r["ell"] == [3]

    def test_bad_insertion_exits_2(self, capsys):
        assert run(capsys, "axioms", "--expr", "x1^5", "--insertions", "x1,y,z")[0] == 2
        assert run(capsys, "axioms", "--expr", "x1^5", "--insertions", "x1,x9,x1,x1")[0] == 2
        # an explicitly empty list is malformed, not a request for the defaults
        assert run(capsys, "axioms", "--expr", "x1^5", "--insertions", "")[:2] == (2, "")
        code, out, err = run(capsys, "axioms", "--expr", "x1^3",
                             "--insertions", f"x1^{LONG},x1,x1,x1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_unit_insertion_parses(self, capsys):
        code, doc, _ = run_json(
            capsys, "axioms", "--expr", "x1^5", "--insertions", "1,x1,x1,x1^3,x1^3"
        )
        assert code == 0
        # identity insertions sort to the end of the primitive head
        assert doc["candidates"][0]["insertions"] == ["x1", "x1", "1", "x1^3", "x1^3"]

    # Candidates the golden fixture never reaches, whose K is not integral,
    # whose type is X(-1), or whose head holds an identity: (polynomial,
    # insertions, text line, the candidate's JSON entry).
    PINNED = [
        # the dimension axiom holds and integer degrees fails
        ("x1^3+x2^3", "x1,x2,x1*x2,x2", "x1^3 + x2^3",
         "<x2, x1, x1*x2, x2>: K = (2/3, 1/3), type NotXminus1, axioms fail",
         {"insertions": ["x2", "x1", "x1*x2", "x2"], "k": 4, "ell": [1, 1],
          "b": ["4/3", "5/3"], "K": ["2/3", "1/3"],
          "type": "NotXminus1", "passes_axioms": False}),
        ("x1^2*x2+x2^2*x3+x3^2", "x3,x3,x3,x3", "x1^2*x2 + x2^2*x3 + x3^2",
         "<x3, x3, x3, x3>: K = (-1/4, 3/2, 0), type NotXminus1, axioms fail",
         {"insertions": ["x3", "x3", "x3", "x3"], "k": 4, "ell": [0, 0, 2],
          "b": ["5/4", "-1/2", "3/1"], "K": ["-1/4", "3/2", "0/1"],
          "type": "NotXminus1", "passes_axioms": False}),
        ("x1^3 + x2^2*x3 + x3^2*x2", "x3,x1,x2*x3,x2*x3", "x1^3 + x2^2*x3 + x2*x3^2",
         "<x3, x1, x2*x3, x2*x3>: K = (1, 0, 0), type Xminus1, axioms pass",
         {"insertions": ["x3", "x1", "x2*x3", "x2*x3"], "k": 4, "ell": [1, 0, 1],
          "b": ["1/1", "1/1", "2/1"], "K": ["1/1", "0/1", "0/1"],
          "type": "Xminus1", "passes_axioms": True}),
        # an identity in the head: sum(ell) = 1 is not k - 2
        ("x1^5", "1,x1,x1,x1", "x1^5",
         "<x1, 1, x1, x1>: K = (1), type NotXminus1, axioms fail",
         {"insertions": ["x1", "1", "x1", "x1"], "k": 4, "ell": [1],
          "b": ["1/1"], "K": ["1/1"],
          "type": "NotXminus1", "passes_axioms": False}),
    ]

    @pytest.mark.parametrize("expr, insertions, shown, line, entry", PINNED)
    def test_pinned_outputs(self, capsys, expr, insertions, shown, line, entry):
        """Every byte of the text and the ``--json`` output."""
        argv = ["axioms", "--expr", expr, "--insertions", insertions]
        assert run(capsys, *argv) == (0, f"polynomial: {shown}\n  {line}\n", "")
        document = {"command": "axioms", "polynomial": shown, "candidates": [entry]}
        assert run(capsys, *argv, "--json") == (0, json.dumps(document, indent=2) + "\n", "")


class TestCorrelator:
    def test_both_sides_by_default(self, capsys):
        code, doc, _ = run_json(capsys, "correlator", "--expr", "x1^5", "--target", "1")
        assert code == 0
        assert doc["A"] == {
            "value": "1/5",
            "method": "concave",
            "decorations": doc["A"]["decorations"],
        }
        assert len(doc["A"]["decorations"]) == 3
        assert doc["B"] == {"value": "-1/5"}

    def test_single_side(self, capsys):
        _, doc, _ = run_json(
            capsys, "correlator", "--expr", "x1^5", "--target", "1", "--side", "A"
        )
        assert "B" not in doc
        _, doc, _ = run_json(
            capsys, "correlator", "--expr", "x1^5", "--target", "1", "--side", "B"
        )
        assert "A" not in doc

    def test_trace_attaches_reduction(self, capsys):
        _, doc, _ = run_json(
            capsys, "correlator", "--expr", "x1^4*x2+x2^2*x1", "--target", "2",
            "--side", "B", "--trace",
        )
        assert doc["B"]["value"] == "-3/7"
        assert doc["B"]["reduction"][0]["chunk"] == {"x1*x2^2": "1/1"}

    def test_trace_reduces_in_the_transposed_ring(self, capsys):
        # x1^3*x2 + x2^4 is not its own transpose; B is computed in
        # Jac(W^t), so the trail must end at the normal form -q_2 * 1
        _, doc, _ = run_json(
            capsys, "correlator", "--expr", "x1^3*x2+x2^4", "--target", "2",
            "--side", "B", "--trace",
        )
        assert doc["B"]["value"] == "-1/4"
        assert doc["B"]["reduction"][-1]["normal_form"] == {"1": "-1/4"}

    def test_out_of_range_target_exits_2(self, capsys):
        assert run(capsys, "correlator", "--expr", "x1^5", "--target", "3")[0] == 2

    def test_chain_head_target_exits_3(self, capsys):
        assert run(capsys, "correlator", "--expr", "x1^3*x2+x2^4", "--target", "1")[0] == 3


class TestWdvv:
    def test_fermat_sum_chain(self, capsys):
        code, doc, _ = run_json(capsys, "wdvv", "--expr", "x1^4+x2^5")
        assert code == 0
        assert len(doc["identities"]) == 2
        for ident in doc["identities"]:
            v = [Fraction(x) for x in ident["values"]]
            assert v[0] == v[1] + v[2] - v[3]
            assert ident["solved"] is not None

    def test_loop_square_chain_reaches_q2(self, capsys):
        code, doc, _ = run_json(capsys, "wdvv", "--expr", "x1^5*x2+x2^2*x1")
        assert code == 0
        assert doc["polynomial"] == "x1^5*x2 + x1*x2^2"
        assert doc["identities"][-1]["solved_value"] == "4/9"  # q2 = (a-1)/(2a-1)
        assert len(doc["identities"]) == 3

    def test_rotated_input_is_canonicalized(self, capsys):
        _, doc, _ = run_json(capsys, "wdvv", "--expr", "x1^2*x2+x2^5*x1")
        assert doc["identities"][-1]["solved_value"] == "4/9"

    def test_unsupported_shapes_exit_3(self, capsys):
        shapes = (
            "unsupported: associativity chains are implemented for sums of "
            "Fermat summands and for two-variable loops with one exponent equal to 2\n")
        for expr in ("x1^3*x2+x2^4", "x1^2*x2+x2^2*x1", "x1^3*x2+x2^3*x1",
                     "x1^4+x2^3*x3+x3^3*x2", "x1^3*x2+x2^3*x3+x3^2*x1"):
            assert run(capsys, "wdvv", "--expr", expr) == (3, "", shapes)

    def test_loop_keeps_the_input_variables(self, capsys):
        """The square sits on x1 here: the chain runs on this polynomial,
        not on x1^5*x2 + x2^2*x1 with its variables swapped."""
        code, doc, _ = run_json(capsys, "wdvv", "--expr", "x1^2*x2+x2^5*x1")
        assert code == 0
        assert doc["polynomial"] == "x1^2*x2 + x1*x2^5"
        assert doc["identities"][-1]["solved"] == "<x2, x1, x1, x1*x2^4>"

    def test_fermat_square_exits_3_like_correlator(self, capsys):
        code, out, err = run(capsys, "wdvv", "--expr", "x1^2 + x2^3")
        assert (code, out) == (3, "")
        assert err == run(capsys, "correlator", "--expr", "x1^2 + x2^3", "--target", "1")[2]
        assert "Fermat variables need exponent at least 3" in err

    @pytest.mark.parametrize("expr", ["x1^2+x2^3", "x1^3+x2^2", "x1^2"])
    def test_fermat_square_exits_3_from_the_gate(self, capsys, monkeypatch, expr):
        """`wdvv` leaves the refusal of a Fermat square to the theorem gate,
        wherever the square sits: every variable passes the gate before
        any seed is evaluated or Wᵗ's ring built, so neither happens."""
        def refuse(f):
            raise AssertionError(f"ring of {f.to_string()} built")

        def evaluate(piece, local):
            raise AssertionError(f"seed at x{local} of {piece.to_string()} evaluated")

        monkeypatch.setattr(wdvv, "ring_of", refuse)
        monkeypatch.setattr(amodel, "_four_point_report", evaluate)
        assert run(capsys, "wdvv", "--expr", expr) == (
            3, "", "unsupported: Fermat variables need exponent at least 3\n")

    def test_chain_is_printed(self, capsys):
        code, out, _ = run(capsys, "wdvv", "--expr", "x1^3*x2+x2^2*x1")
        assert code == 0
        assert "solves <x1, x2, x2, x1^2*x2> = 2/5" in out


class TestMonomialParsing:
    def test_round_trip(self):
        assert cli.parse_monomial("x1^2*x3", 3) == (2, 0, 1)
        assert cli.parse_monomial("1", 2) == (0, 0)
        assert cli.parse_monomial("x2*x2", 2) == (0, 2)
        assert cli.parse_monomial("x1 * x2", 2) == (1, 1)

    def test_rejects_garbage(self):
        from lgmirror.poly import PolynomialSyntaxError

        with pytest.raises(PolynomialSyntaxError):
            cli.parse_monomial("x0", 2)
        with pytest.raises(PolynomialSyntaxError):
            cli.parse_monomial("x1 + x2", 2)
        with pytest.raises(PolynomialSyntaxError):
            cli.parse_monomial("x3", 2)
        with pytest.raises(PolynomialSyntaxError, match="exponent 0"):
            cli.parse_monomial("x1^0", 2)


# ------------------------------------------------------------------ wiring

# (option strings, help, required, default, choices, type) of the options
# every subcommand shares; `--expr` and `--input` form one required group
_COMMON_OPTIONS = [
    (("-h", "--help"), "show this help message and exit", False, argparse.SUPPRESS, None, None),
    (("--expr",), "polynomial, e.g. 'x1^3*x2 + x2^4'", False, None, None, None),
    (("--input",), 'file holding the polynomial (expression or {"E": [[...], ...]} JSON)',
     False, None, None, None),
    (("--json",), "machine-readable output", False, False, None, None),
    (("--trace",), "emit boundary decorations (A side) and reduction steps (B side)",
     False, False, None, None),
]

# name -> (help, handler, options) of each subcommand, in `--help` order
WIRING = {
    "verify": ("check A = q_i and B = -q_i for all variables", cli.cmd_verify, _COMMON_OPTIONS),
    "classify": ("atomic summand decomposition and weights", cli.cmd_classify, _COMMON_OPTIONS),
    "mirror": ("sector data of the transposed basis monomials", cli.cmd_mirror, _COMMON_OPTIONS),
    "jacobi": ("standard basis and Gram matrix of Jac(W)", cli.cmd_jacobi, _COMMON_OPTIONS),
    "axioms": ("selection-rule data (l, b, K, type)", cli.cmd_axioms, _COMMON_OPTIONS + [
        (("--insertions",), "comma-separated monomials in the transposed ring, e.g. "
         "'x1,x1,x1^2,x1^2' (default: each admissible final-type correlator)",
         False, None, None, None),
    ]),
    "correlator": ("one four-point value on one side", cli.cmd_correlator, _COMMON_OPTIONS + [
        (("--target",), "variable index i (1-based)", True, None, None, int),
        (("--side",), None, False, "both", ("A", "B", "both"), None),
    ]),
    "wdvv": ("print an associativity reconstruction chain", cli.cmd_wdvv, _COMMON_OPTIONS),
}


def test_subcommand_wiring():
    """Each subcommand keeps its name, help, handler and options, in order,
    with the source options one required either-or group."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    found = {
        name: (helps[name], p.get_default("handler"),
               [(tuple(a.option_strings), a.help, a.required, a.default, a.choices, a.type)
                for a in p._actions])
        for name, p in sub.choices.items()
    }
    assert list(found) == list(WIRING)
    assert found == WIRING
    for p in sub.choices.values():
        assert [(g.required, [a.dest for a in g._group_actions])
                for g in p._mutually_exclusive_groups] == [(True, ["expr", "input"])]
