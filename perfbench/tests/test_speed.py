"""The speed probe measures its own passes and takes them out of a span.

    python3 -m pytest perfbench/tests
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import speed  # noqa: E402


def test_reference_seconds_removes_probe_time_then_scales():
    assert speed.reference_seconds(5.0, 1.0, 0.5) == pytest.approx(2.0)


def test_probe_samples_a_busy_span_and_stops():
    probe = speed.Probe()
    probe.start()
    end = time.perf_counter() + 0.5
    while time.perf_counter() < end:
        pass
    probe.stop()
    n = len(probe.passes)
    assert n >= 5
    assert probe.spent_wall == pytest.approx(sum(probe.passes))
    assert probe.scale() > 0.0
    time.sleep(2 * speed.INTERVAL_S)
    assert len(probe.passes) == n


def test_probe_takes_one_pass_in_a_span_too_short_for_the_timer():
    probe = speed.Probe()
    probe.start()
    probe.stop()
    assert len(probe.passes) == 1


def test_disarm_stops_the_timer_of_a_started_probe():
    import signal

    probe = speed.Probe()
    probe.start()
    probe.disarm()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
