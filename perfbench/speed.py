"""Machine-speed sampling used to scale the end-to-end times.

On a shared machine the speed of one core swings by more than half within
a second as other tenants' load on the same physical core comes and goes,
and the other core of the machine does not see the same swings. So the
speed is sampled on the measuring thread itself, while the op runs: an
interval timer interrupts the op every ``INTERVAL_S`` and runs a short
probe, a fixed piece of work in the same mix as the program (small numpy
kernels between Python-level loops over small arrays) that runs no
``optiqkd`` code, so no change to the program can change its time.

A timed interval is then reported in seconds at one fixed machine speed:
its wall time minus the probes run inside it, times the mean of
``REFERENCE_S / probe time`` over the probes taken in it. Probes do not
touch any state the program reads, so outputs are unchanged; the op pairs
in ``bench`` check that byte for byte. Wall times stay in the run's info
line. In a traced op the tracer's clock stops while a probe runs, so no
span includes probe time.
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager
from typing import List, Tuple

import numpy as np

INTERVAL_S = 0.05
MIN_PROBES = 5
# Probe time on the reference machine (2-core x86-64 VM, Python 3.11,
# numpy 2.4 with OpenBLAS on one thread) in its fast state. Only ratios to
# it are used; it sets the scale of the reported times.
REFERENCE_S = 0.0013

_rng = np.random.Generator(np.random.Philox(key=12345))
_X = _rng.standard_normal((64, 16, 32))
_W = _rng.standard_normal((16, 16))


def probe() -> float:
    """Seconds one pass of the fixed reference work takes now."""
    t0 = time.perf_counter()
    for _ in range(3):
        np.einsum("oc,bct->bot", _W, _X)
    for i in range(100):
        float(np.clip(np.array([i * 0.1, 1.0, 2.0]), 0.0, 1.0).sum())
    return time.perf_counter() - t0


class SpeedSampler:
    """Probes taken from a SIGALRM interval timer on the main thread."""

    def __init__(self):
        self.starts: List[float] = []
        self.durs: List[float] = []
        self.tracer = None  # set while a traced op runs; its clock skips probes

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        d = probe()
        self.starts.append(t0)
        self.durs.append(d)
        if self.tracer is not None:
            self.tracer.probe_taken(t0, time.perf_counter() - t0, d)

    @contextmanager
    def running(self, tracer=None):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.tracer = tracer
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.tracer = None

    def measure(self, t0: float, t1: float) -> Tuple[float, float]:
        """Wall seconds of [t0, t1] without the probes run inside it, and
        the seconds it would have taken at the reference speed. An interval
        holding fewer than ``MIN_PROBES`` probes takes its speed from the
        probes nearest to it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        wall = t1 - t0 - sum(self.durs[lo:hi])
        used = range(lo, hi)
        if hi - lo < MIN_PROBES:
            if len(self.starts) < MIN_PROBES:
                raise RuntimeError("too few speed probes to scale a timing")
            mid = 0.5 * (t0 + t1)
            i = bisect.bisect_left(self.starts, mid)
            near = range(max(0, i - MIN_PROBES), min(len(self.starts), i + MIN_PROBES))
            used = sorted(near, key=lambda j: abs(self.starts[j] - mid))[:MIN_PROBES]
        factor = float(np.mean([REFERENCE_S / self.durs[j] for j in used]))
        return wall, wall * factor
