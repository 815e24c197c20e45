"""Span recorder for the traced benchmark pass.

The recorder lives in the benchmark, not in lgmirror: `instrument` rebinds
the public entry points listed in ENTRY_POINTS to thin wrappers that open
and close a span.  Each span keeps its name, start, end, parent span and the
id of the item being processed; self time is a span's duration minus the
time its direct child spans cover.  Spans stay in memory (flat arrays) and
are summarised when the pass ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

# (span name, module, attribute path) — one per wrapped public entry point.
ENTRY_POINTS = (
    ("poly.from_exponent_matrix", "lgmirror.poly", "InvertiblePolynomial.from_exponent_matrix"),
    ("poly.inverse_exponents", "lgmirror.poly", "InvertiblePolynomial.inverse_exponents"),
    ("linalg.invert", "lgmirror.linalg", "invert"),
    ("linalg.solve", "lgmirror.linalg", "solve"),
    ("linalg.solve_general", "lgmirror.linalg", "solve_general"),
    ("linalg.RowSpace.add", "lgmirror.linalg", "RowSpace.add"),
    ("jacobi.ring_build", "lgmirror.jacobi", "JacobiRing.__init__"),
    ("jacobi.reduce", "lgmirror.jacobi", "JacobiRing.reduce"),
    ("jacobi.divide", "lgmirror.jacobi", "JacobiRing.divide"),
    ("mirror.sector_of", "lgmirror.mirror", "sector_of"),
    ("amodel.four_point_report", "lgmirror.amodel", "four_point_report"),
    ("amodel.boundary_decorations", "lgmirror.amodel", "boundary_decorations"),
    ("amodel.b2_correlator", "lgmirror.amodel", "b2_correlator"),
    ("amodel.guere_correlator", "lgmirror.amodel", "guere_correlator"),
    ("amodel.wdvv_case1", "lgmirror.amodel", "wdvv_case1"),
    ("amodel.wdvv_case2", "lgmirror.amodel", "wdvv_case2"),
    ("bmodel.sg_four_point", "lgmirror.bmodel", "sg_four_point"),
    ("bmodel.brieskorn_reduce", "lgmirror.bmodel", "brieskorn_reduce"),
    ("bmodel.good_basis_check", "lgmirror.bmodel", "good_basis_check"),
    ("bmodel.perturbative_expand", "lgmirror.bmodel", "perturbative_expand"),
    ("cli.main", "lgmirror.cli", "main"),
)

AMODEL_METHODS = ("concave", "guere", "wdvv1", "wdvv2")

# Layers whose self time is summed as <layer>.self_s.  groups, selection and
# wdvv have no wrapped entry point on this traffic: their time is amodel's.
LAYERS = ("poly", "linalg", "jacobi", "mirror", "amodel", "bmodel", "cli")

COUNTERS = (
    ("linalg.solve_general.cells", "count"),
    ("jacobi.ring_build.mu_sum", "count"),
    ("jacobi.ring_build.reuse", "ratio"),
    ("jacobi.divide.terms", "count"),
    *((f"amodel.method.{m}", "count") for m in AMODEL_METHODS),
    ("amodel.four_point_report.skipped", "count"),
    ("bmodel.good_basis_check.pairs", "count"),
    ("bmodel.good_basis_check.admissible_ratio", "ratio"),
)

TRACE_METRICS = (
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every (name, unit) a traced pass reports, in a fixed order."""
    out = []
    for name, _, _ in ENTRY_POINTS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    return out + list(COUNTERS) + list(TRACE_METRICS)


class Tracer:
    """In-memory span store for one single-threaded pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self._stack: list[int] = []
        self.current_item = -1
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self.paused: defaultdict = defaultdict(float)  # span index -> probe time

    def pause(self, seconds: float) -> None:
        """Charge time spent outside lgmirror (a speed probe) to no span."""
        if self._stack:
            self.paused[self._stack[-1]] += seconds

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's and
        minus the probe time charged to it."""
        own = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(own)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += own[i]
        return [d - c - self.paused.get(i, 0.0) for i, (d, c) in enumerate(zip(own, covered))]

    def summary(self, scales=None) -> tuple[Counter, defaultdict]:
        """(calls, total self time) per span name.

        With ``scales``, each span's self time is multiplied by the scale of
        its item (reference seconds per wall second, see speed.py).
        """
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for nid, item, st in zip(self.name_id, self.item, self.self_times()):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += st * (scales[item] if scales is not None else 1)
        return calls, self_s

    def per_item(self) -> dict[int, Counter]:
        """Self time per span name, for each item id."""
        out: dict[int, Counter] = defaultdict(Counter)
        for nid, item, st in zip(self.name_id, self.item, self.self_times()):
            out[item][self.names[nid]] += st
        return out


def _span_wrapper(tracer: Tracer, name: str, fn, after=None, on_error=None):
    nid = tracer.name_index(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(tracer, exc)
            raise
        finally:
            tracer.close(idx)
        if after is not None:
            try:
                after(tracer, args, result)
            except (AttributeError, TypeError, IndexError):
                # the entry point changed shape: keep the span, lose the counter
                tracer.counts["trace.hook_errors"] += 1
        return result

    return traced


def _hooks(errors_module):
    """Counters recorded at the span boundaries, keyed by span name."""
    unsupported = errors_module.UnsupportedByTheorem

    def cells(t, args, result):
        m = args[0]
        t.counts["linalg.solve_general.cells"] += len(m) * (len(m[0]) if m else 0)

    def ring_build(t, args, result):
        ring, f = args[0], args[1]
        t.counts["jacobi.ring_build.mu_sum"] += ring.mu
        t.distinct["jacobi.ring_build"].add(f.E)

    def divide(t, args, result):
        t.counts["jacobi.divide.terms"] += len(args[1])

    def method(t, args, result):
        t.counts[f"amodel.method.{result.method}"] += 1

    def skipped(t, exc):
        if isinstance(exc, unsupported):
            t.counts["amodel.four_point_report.skipped"] += 1

    def good_basis(t, args, result):
        t.counts["bmodel.good_basis_check.pairs"] += result.checked_pairs
        t.counts["bmodel.good_basis_check.admissible"] += result.admissible_pairs

    return {
        "linalg.solve_general": (cells, None),
        "jacobi.ring_build": (ring_build, None),
        "jacobi.divide": (divide, None),
        "amodel.four_point_report": (method, skipped),
        "bmodel.good_basis_check": (good_basis, None),
    }


class Instrumentation:
    """The rebinding `instrument` made; `restore` undoes it."""

    def __init__(self):
        self.undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def restore(self) -> None:
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()


def _lgmirror_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lgmirror" or name.startswith("lgmirror."))]


def instrument(tracer: Tracer, entry_points=ENTRY_POINTS) -> Instrumentation:
    """Wrap each entry point in a span; report missing ones as absent.

    A module-level function is rebound in every lgmirror module namespace
    that holds the same object (``amodel.sector_of``, ``cli.main``, …).
    Methods and staticmethods are rebound on their class.
    """
    errors = sys.modules["lgmirror.errors"]
    hooks = _hooks(errors)
    done = Instrumentation()
    for name, module_name, path in entry_points:
        after, on_error = hooks.get(name, (None, None))
        module = sys.modules.get(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            done.absent.append(name)
            continue
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(_span_wrapper(tracer, name, raw.__func__, after, on_error))
        else:
            wrapped = _span_wrapper(tracer, name, raw, after, on_error)
        if owner_name:
            done.undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            continue
        for mod in _lgmirror_modules():
            for key, value in list(vars(mod).items()):
                if value is raw:
                    done.undo.append((mod, key, raw))
                    setattr(mod, key, wrapped)
    return done


def layer_metrics(tracer: Tracer, scales=None) -> dict[str, float]:
    """Values for every span, layer and counter in `per_layer_metrics`.

    An absent entry point reports 0 calls and 0 s.
    """
    calls, self_s = tracer.summary(scales)
    out: dict[str, float] = {}
    for name, _, _ in ENTRY_POINTS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
    c = tracer.counts
    builds = calls.get("jacobi.ring_build", 0)
    pairs = c["bmodel.good_basis_check.pairs"]
    for name, _ in COUNTERS:
        if name == "jacobi.ring_build.reuse":
            out[name] = len(tracer.distinct["jacobi.ring_build"]) / builds if builds else 0.0
        elif name == "bmodel.good_basis_check.admissible_ratio":
            out[name] = c["bmodel.good_basis_check.admissible"] / pairs if pairs else 0.0
        else:
            out[name] = c[name]
    return out
