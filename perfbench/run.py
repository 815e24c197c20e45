"""lgmirror benchmark: one closed-loop client over three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Workloads are ``sweep``, ``ladder`` and ``lattice`` (see workloads.py).
With ``--trace 0`` the run measures the end-to-end metrics in this fresh
interpreter, untraced.  With ``--trace 1`` it first runs the same items
untraced in a fresh child interpreter, then again with every lgmirror entry
point wrapped in a span, and reports the per-layer metrics and the tracing
overhead (traced minus untraced item time).  Both passes must produce the
same output digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` of the same checkout; without it the run exits 2.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, instrument, layer_metrics, per_layer_metrics
from speed import NOMINAL_PROBE_S
from workloads import NOMINAL_SECONDS, WORKLOADS, run_items

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Interpreter start plus `import lgmirror, lgmirror.cli`: what every
# `lgmirror` invocation pays.  One untimed spawn first (it may compile
# bytecode), then the median of SETUP_SPAWNS timed ones, in wall seconds:
# process start and shared-library loading do not track the speed probe,
# and scaling by it left the spread as wide as before.
SETUP_SPAWNS = 9
IMPORT_PROBE = (
    "import sys; src = sys.argv[1]; sys.path.insert(0, src); "
    "import lgmirror, lgmirror.cli; "
    "sys.exit(0 if lgmirror.__file__.startswith(src) else 1)"
)
CHILD_TIMEOUT_S = 150


class NoProgram(RuntimeError):
    """The checkout holds no lgmirror sources to benchmark."""


def setup_seconds() -> float:
    times = []
    for k in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise NoProgram(f"importing lgmirror from {SRC} failed: {proc.stderr.decode()[-500:]}")
        if k:
            times.append(elapsed)
    return statistics.median(times)


def import_lgmirror():
    """The package from this checkout's src/, never an installed copy."""
    if not (SRC / "lgmirror" / "__init__.py").is_file():
        raise NoProgram(f"no lgmirror package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lgmirror
    import lgmirror.cli  # noqa: F401  (imports every submodule)

    if not Path(lgmirror.__file__).resolve().is_relative_to(SRC):
        raise NoProgram(f"imported {lgmirror.__file__}, not the checkout's copy")
    return lgmirror


def quantile(values, k: int) -> float:
    """The k-th decile, interpolated within the observed range."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def end_to_end(setup_s: float, result, rss_mb: float, ref: bool) -> dict:
    durations = result.ref_durations if ref else result.durations
    ms = [d * 1000 for d in durations]
    return {
        "setup_s": setup_s,
        "items_per_s": result.attempted / sum(durations),
        "item_p50_ms": statistics.median(ms),
        "item_p90_ms": quantile(ms, 9),
        "peak_rss_mb": rss_mb,
    }


def untraced(args, items) -> tuple[dict, object]:
    setup = setup_seconds()
    lg = import_lgmirror()
    result = run_items(lg, items)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = end_to_end(setup, result, rss_mb, ref=True)
    wall = end_to_end(setup, result, rss_mb, ref=False)
    print(f"workload {args.workload}  seed {args.seed}  items {result.attempted}  "
          "(closed loop, 1 client, in-process `verify --json` or lattice calls)")
    print(f"  item times in reference seconds (probe nominal {NOMINAL_PROBE_S * 1000:g} ms), "
          f"host speed {min(result.scales):.2f}-{max(result.scales):.2f} of nominal; "
          "setup_s in wall seconds")
    print(f"  {'metric':<14} {'value':>14} {'unit':<5} {'wall-clock':>12}")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {values[name]:>14.6g} {unit:<5} {wall[name]:>12.6g}")
    print(f"  {'fail_rate':<14} {result.failed / result.attempted:>14.6g} ratio"
          f"  ({result.failed} of {result.attempted})")
    if result.attempted < 100:
        print(f"  note: item_p90_ms rests on {result.attempted} items, fewer than 10 beyond it")
    _slowest_items(items, result, count=5)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, result


def traced(args, items) -> tuple[dict, object, bool]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    child = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0:
        raise NoProgram(f"untraced pass failed ({child.returncode}): {child.stderr[-500:]}")
    lines = child.stdout.splitlines()
    base = json.loads(next(line[5:] for line in lines if line.startswith("pass ")))
    base_ok = json.loads(lines[-1])["correct"]

    lg = import_lgmirror()
    tracer = Tracer()
    done = instrument(tracer)
    try:
        result = run_items(lg, items, tracer)
    finally:
        done.restore()
    values = layer_metrics(tracer, result.scales)
    values["trace.untraced_s"] = base["ref_s"]
    values["trace.traced_s"] = result.ref_s
    values["trace.overhead_s"] = result.ref_s - base["ref_s"]
    values["trace.spans"] = len(tracer.start)
    same = base["digest"] == result.digest.hexdigest()

    print(f"workload {args.workload}  seed {args.seed}  items {result.attempted}  traced"
          " (times in reference seconds, see speed.py)")
    print(f"  untraced {base['ref_s']:.4f} s, traced {result.ref_s:.4f} s, "
          f"overhead {values['trace.overhead_s']:.4f} s over {len(tracer.start)} spans")
    if done.absent:
        print(f"  absent entry points (0 calls): {', '.join(done.absent)}")
    if tracer.counts["trace.hook_errors"]:
        print(f"  {tracer.counts['trace.hook_errors']} counter hooks failed on a changed entry point")
    print(f"  digest {'equal to' if same else 'DIFFERS FROM'} the untraced pass")
    calls, self_s = tracer.summary(result.scales)
    total = sum(self_s.values()) or 1.0
    print(f"  {'span':<30} {'calls':>9} {'self_s':>10} {'share':>7}")
    for name in sorted(self_s, key=self_s.get, reverse=True):
        print(f"  {name:<30} {calls[name]:>9} {self_s[name]:>10.4f} {self_s[name] / total:>7.1%}")
    for name, value in values.items():
        if not name.endswith((".calls", ".self_s")):
            print(f"  {name:<44} {value:.6g}")
    _slowest_items(items, result, tracer)
    units = dict(per_layer_metrics())
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return metrics, result, base_ok and same


def _slowest_items(items, result, tracer=None, count: int = 8) -> None:
    """The slowest items; traced, with ring builds and top spans by self time."""
    order = sorted(range(len(items)), key=lambda k: result.durations[k], reverse=True)
    print(f"  slowest {count} items" + (" (ring builds; top spans by self time):" if tracer else ":"))
    if tracer is not None:
        per_item = tracer.per_item()
        builds = [0] * len(items)
        build_id = tracer.name_index("jacobi.ring_build")
        for nid, item in zip(tracer.name_id, tracer.item):
            if nid == build_id and item >= 0:
                builds[item] += 1
    for k in order[:count]:
        line = f"    #{k} {items[k].label}: {result.durations[k] * 1000:.1f} ms wall"
        if tracer is not None:
            top = sorted(per_item.get(k, {}).items(), key=lambda kv: kv[1], reverse=True)[:3]
            line += f", {builds[k]} builds; " + ", ".join(
                f"{n} {s / result.durations[k]:.0%}" for n, s in top)
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="run size: item counts are calibrated to take about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    items = WORKLOADS[args.workload](args.seed, args.seconds)
    try:
        if args.trace:
            metrics, result, correct = traced(args, items)
        else:
            metrics, result = untraced(args, items)
            correct = True
    except NoProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for k, problem in result.failures[:20]:
        print(f"  FAIL #{k}: {problem}")
    digest = result.digest.hexdigest()
    print(f"digest {args.workload} seed {args.seed}: sha256:{digest}")
    print("pass " + json.dumps({"digest": digest, "ref_s": result.ref_s, "wall_s": result.wall_s}))
    print(json.dumps({
        "correct": correct and result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
