"""Command-line interface: exit codes, JSON reports, tracing."""

import json
import re
from fractions import Fraction

import pytest

from lgmirror import cli
from lgmirror.jacobi import JacobiRing, ring_of
from lgmirror.poly import InvertiblePolynomial

RATIONAL = re.compile(r"^-?\d+/\d+$")


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
        code, _, err = run(capsys, "verify", "--expr", "x1^3 + not a poly")
        assert code == 2
        assert err

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
        monkeypatch.setattr(cli, "sg_four_point", lambda W, i: Fraction(1, 7))
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


def test_verify_builds_one_ring_per_piece(monkeypatch):
    """The A side's top and the B side's reduction share Jac of each rotated
    piece's transpose: four distinct pieces, four ring builds."""
    built = []
    init = JacobiRing.__init__

    def counting_init(self, f):
        built.append(f)
        init(self, f)

    ring_of.cache_clear()
    monkeypatch.setattr(JacobiRing, "__init__", counting_init)
    W = InvertiblePolynomial.from_string("x1^5*x2+x2^6*x3+x3^7*x4+x4^8*x1")
    assert cli.verification_report(W)["overall"] == "pass"
    assert len(built) == 4


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

    @pytest.mark.parametrize("blob", [
        '{"E": "abc"}',
        '{"E": [3]}',
        '{"E": [[3.5]]}',
        '{"E": [["3"]]}',
        '{"E": [[3, true], [0, 4]]}',
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
        monkeypatch.setenv("LGMIRROR_GROUP_CAP", "many")
        with pytest.raises(ValueError):
            run(capsys, "classify", "--expr", "x1^4+x2^4", "--trace")


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

    def test_weight_half_chain_exits_3(self, capsys):
        assert run(capsys, "mirror", "--expr", "x1^3*x2+x2^2")[0] == 3


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

    def test_unit_insertion_parses(self, capsys):
        code, doc, _ = run_json(
            capsys, "axioms", "--expr", "x1^5", "--insertions", "1,x1,x1,x1^3,x1^3"
        )
        assert code == 0
        # identity insertions sort to the end of the primitive head
        assert doc["candidates"][0]["insertions"] == ["x1", "x1", "1", "x1^3", "x1^3"]


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
        assert run(capsys, "wdvv", "--expr", "x1^3*x2+x2^4")[0] == 3
        assert run(capsys, "wdvv", "--expr", "x1^2*x2+x2^2*x1")[0] == 3

    def test_chain_is_printed(self, capsys):
        code, out, _ = run(capsys, "wdvv", "--expr", "x1^3*x2+x2^2*x1")
        assert code == 0
        assert "solves <x1, x2, x2, x1^2*x2> = 2/5" in out


class TestMonomialParsing:
    def test_round_trip(self):
        assert cli.parse_monomial("x1^2*x3", 3) == (2, 0, 1)
        assert cli.parse_monomial("1", 2) == (0, 0)
        assert cli.parse_monomial("x2*x2", 2) == (0, 2)

    def test_rejects_garbage(self):
        from lgmirror.poly import PolynomialSyntaxError

        with pytest.raises(PolynomialSyntaxError):
            cli.parse_monomial("x0", 2)
        with pytest.raises(PolynomialSyntaxError):
            cli.parse_monomial("x1 + x2", 2)
        with pytest.raises(PolynomialSyntaxError):
            cli.parse_monomial("x3", 2)
