"""The machine's speed while the program runs, from a fixed kernel.

On a shared host the speed a CPU gives one process changes by a factor of
up to 2.5, in phases that last from seconds to minutes and that show in CPU
time as well as in wall time.  A time taken in a slow phase says more
about the phase than about the program.  So while a measured span runs, a
``Probe`` times one pass of a fixed kernel every ``INTERVAL_S`` of wall
time, from a SIGALRM handler in the measured process itself.  The kernel
does not use breitlab and does not depend on the seed, so a change to the
program cannot move it; only the machine can.

A span's time is reported in reference seconds: its wall (or CPU) time,
less the time the handler spent, times the span's mean speed, the mean of
``REF_PASS_S`` over each pass time measured during it.  That is the time
the span would take on a machine on which one pass takes ``REF_PASS_S``,
which is about what the 2.1 GHz Xeon the benchmark was written on gives
in its fast phases.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy import fft

# Wall time of one pass, rounded, on a 2-CPU Intel Xeon VM at 2.1 GHz in a
# fast phase; a pass took 1.2-1.6 ms there in its usual phases.
REF_PASS_S = 0.0010
INTERVAL_S = 0.04
WARM_PASSES = 100


class Probe:
    """Times one kernel pass every ``INTERVAL_S`` between start() and stop()."""

    def __init__(self):
        t0, c0 = time.perf_counter(), time.process_time()
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((8, 8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8, 8))
        self._mat = rng.standard_normal((64, 64))
        self._field = rng.standard_normal((12, 12, 12, 16)) + 1j * rng.standard_normal((12, 12, 12, 16))
        self._block = self._field.reshape(4, -1)
        for _ in range(WARM_PASSES):
            self._pass()
        # what building and warming the probe took from the process
        self.warm_wall = time.perf_counter() - t0
        self.warm_cpu = time.process_time() - c0
        self.passes = []
        self.spent_wall = self.spent_cpu = 0.0

    def _pass(self):
        """What the workloads spend their time on, in small: a 3-D FFT pair
        on a small and on a workload-sized field, a small matmul, a Gram
        matrix of a block of field-sized vectors and a loop of Python
        arithmetic."""
        fft.ifftn(fft.fftn(self._small, axes=(0, 1, 2)), axes=(0, 1, 2))
        fft.ifftn(fft.fftn(self._field, axes=(0, 1, 2)), axes=(0, 1, 2))
        self._mat @ self._mat
        self._block.conj() @ self._block.T
        acc = 0.0
        for i in range(2000):
            acc += i * 0.5
        return acc

    def _on_alarm(self, signum, frame):
        w0, c0 = time.perf_counter(), time.process_time()
        self._pass()
        w = time.perf_counter() - w0
        self.passes.append(w)
        self.spent_wall += w
        self.spent_cpu += time.process_time() - c0

    def start(self):
        """Begin a span: forget earlier passes and arm the timer."""
        self.passes = []
        self.spent_wall = self.spent_cpu = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def disarm(self):
        """Stop the timer and restore the default handler."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def stop(self):
        """End a span; a span too short for the timer gets one pass now."""
        self.disarm()
        if not self.passes:
            self._on_alarm(None, None)

    def scale(self):
        """The span's mean speed relative to the reference, REF_PASS_S / pass.

        Passes are spaced evenly in wall time, so the mean of the speeds is
        the time average of the speed, which is what turns a span's time
        into its work.  The mean of the pass times would weigh slow passes
        twice.
        """
        return statistics.fmean(REF_PASS_S / p for p in self.passes)


def reference_seconds(raw_s, spent_s, scale):
    """A span's raw time less the probe's share, in reference seconds."""
    return (raw_s - spent_s) * scale
