"""The host-speed probe: what it subtracts and how it scales."""

import signal
import time

from speed import INTERVAL_S, NOMINAL_PROBE_S, SpeedProbe
from spans import Tracer, _span_wrapper


def test_inside_and_scale_arithmetic():
    p = SpeedProbe()
    p.starts = [0.0, 0.05, 0.10, 0.15, 0.60]
    p.values = [0.001, 0.002, 0.001, 0.003, 0.004]
    assert p.inside(0.04, 0.12) == 0.002 + 0.001
    # probes within one interval of [0.06, 0.08]: those at 0.05 and 0.10
    assert p.scale(0.06, 0.08) == NOMINAL_PROBE_S / 0.0015
    # none within reach of [0.3, 0.4]: the nearest on each side
    assert p.scale(0.3, 0.4) == NOMINAL_PROBE_S / 0.0035


def test_probes_fire_while_work_runs_and_the_handler_is_restored():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as p:
        end = time.perf_counter() + 6 * INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(p.values) >= 4
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_probe_time_is_charged_to_no_span():
    ticks = iter([0.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    idx = t.open(t.name_index("work"))
    t.pause(4.0)
    t.close(idx)
    assert t.self_times() == [6.0]


def test_a_counter_hook_on_a_changed_entry_point_keeps_the_span():
    t = Tracer()
    wrapped = _span_wrapper(t, "x", lambda: 42, after=lambda tr, args, result: result.missing)
    assert wrapped() == 42
    assert t.counts["trace.hook_errors"] == 1
    assert t.summary()[0] == {"x": 1}
