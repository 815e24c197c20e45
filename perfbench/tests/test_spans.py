"""The span recorder: self-time arithmetic and entry-point wrapping."""

import json
from pathlib import Path

import lgmirror
import lgmirror.cli  # noqa: F401
from lgmirror import amodel, bmodel, cli, mirror, poly

import run
from spans import ENTRY_POINTS, Tracer, instrument, layer_metrics, per_layer_metrics

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] ⊃ a [1, 4], b [5, 9] ⊃ c [6, 7]
    t = Tracer(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
    root, a, b, c = (t.name_index(n) for n in ("root", "a", "b", "c"))
    r = t.open(root)
    t.close(t.open(a))
    ib = t.open(b)
    t.close(t.open(c))
    t.close(ib)
    t.close(r)
    assert t.self_times() == [3, 3, 3, 1]
    assert list(t.parent) == [-1, 0, 0, 2]
    calls, self_s = t.summary()
    assert calls == {"root": 1, "a": 1, "b": 1, "c": 1}
    assert sum(self_s.values()) == 10  # self times partition the root


def test_self_time_sums_over_calls_and_items():
    t = Tracer(clock=FakeClock([0, 2, 3, 4, 10, 11, 12, 20]))
    outer, inner = t.name_index("outer"), t.name_index("inner")
    for item in (0, 1):
        t.current_item = item
        o = t.open(outer)
        t.close(t.open(inner))
        t.close(o)
    calls, self_s = t.summary()
    assert calls == {"outer": 2, "inner": 2}
    assert self_s == {"outer": 3 + 9, "inner": 2}
    assert t.per_item() == {0: {"outer": 3, "inner": 1}, 1: {"outer": 9, "inner": 1}}


def test_instrument_rebinds_every_namespace_and_restores():
    originals = (mirror.sector_of, amodel.sector_of, cli.brieskorn_reduce,
                 poly.InvertiblePolynomial.__dict__["from_exponent_matrix"], cli.main)
    assert mirror.sector_of is amodel.sector_of
    tracer = Tracer()
    done = instrument(tracer)
    try:
        assert done.absent == []
        assert amodel.sector_of is mirror.sector_of is not originals[0]
        assert cli.brieskorn_reduce is bmodel.brieskorn_reduce is not originals[2]
        assert lgmirror.four_point_report is amodel.four_point_report
        assert isinstance(poly.InvertiblePolynomial.__dict__["from_exponent_matrix"], staticmethod)
        assert cli.main(["verify", "--json", "--expr", "x1^3*x2 + x2^3*x1"]) == 0
    finally:
        done.restore()
    calls, self_s = tracer.summary()
    assert calls["cli.main"] == 1
    assert calls["amodel.four_point_report"] == 2
    assert calls["mirror.sector_of"] > 0 and calls["jacobi.ring_build"] > 0
    values = layer_metrics(tracer)
    assert values["amodel.method.concave"] == 2
    assert values["jacobi.ring_build.mu_sum"] > 0
    assert (mirror.sector_of, amodel.sector_of, cli.brieskorn_reduce,
            poly.InvertiblePolynomial.__dict__["from_exponent_matrix"], cli.main) == originals


def test_missing_entry_point_is_absent_not_fatal():
    points = ENTRY_POINTS + (("jacobi.gone", "lgmirror.jacobi", "JacobiRing.gone"),
                             ("linalg.gone", "lgmirror.linalg", "gone"))
    tracer = Tracer()
    done = instrument(tracer, points)
    done.restore()
    assert done.absent == ["jacobi.gone", "linalg.gone"]
    values = layer_metrics(tracer)
    assert values["linalg.solve_general.calls"] == 0
    assert values["linalg.solve_general.self_s"] == 0


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == per_layer_metrics()
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)

