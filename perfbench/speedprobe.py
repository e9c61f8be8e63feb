"""Machine-speed sampling, so that timings survive a drifting shared host.

On a shared 2-vCPU host the same catalog build takes anywhere from 24 s to
43 s depending on what the neighbours do, in phases that last minutes; no
amount of work per run averages that out.  While a phase is timed,
`SpeedProbe` interrupts it every `INTERVAL_S` of wall time (SIGALRM) to
run a fixed kernel that does not use the library: exact elimination mod 3
of small matrices, the same mix of interpreter loops and small numpy
operations as `ffmat`.  The probe's own time is excluded from the phase,
and `slowdown` (mean kernel time over `REFERENCE_KERNEL_S`) turns a
measured time into seconds at a fixed reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.5
# Kernel time that defines the reference speed: a typical value on a
# 2-CPU 2.0 GHz Xeon, which ran it in 5.5-13 ms as its neighbours came and
# went.  Only the ratio between runs matters.
REFERENCE_KERNEL_S = 0.0070

_MATRICES = [
    np.random.default_rng(0).integers(0, 3, size=(12, 16)) for _ in range(30)
]


def kernel():
    """Row-reduce the fixed matrices mod 3; returns (wall, CPU) seconds."""
    t0, c0 = time.perf_counter(), time.process_time()
    for m in _MATRICES:
        a = m.copy()
        r = 0
        for c in range(a.shape[1]):
            if r == a.shape[0]:
                break
            nz = np.nonzero(a[r:, c])[0]
            if nz.size == 0:
                continue
            piv = r + int(nz[0])
            if piv != r:
                a[[r, piv]] = a[[piv, r]]
            a[r] = (a[r] * int(a[r, c])) % 3  # x * x = 1 for x in {1, 2}
            col = a[:, c].copy()
            col[r] = 0
            rows = np.nonzero(col)[0]
            if rows.size:
                a[rows] = (a[rows] - np.outer(col[rows], a[r])) % 3
            r += 1
    return time.perf_counter() - t0, time.process_time() - c0


class SpeedProbe:
    """Context manager sampling `kernel` while the body runs.

    `excluded_wall` and `excluded_cpu` accumulate the probe's own time;
    callers subtract them from what they measure.
    """

    def __init__(self):
        self.samples = []
        self.excluded_wall = 0.0
        self.excluded_cpu = 0.0
        self._busy = False
        self._old_handler = None

    def __enter__(self):
        self._sample()  # at least two samples, however short the phase
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample()
        return False

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._sample()

    def _sample(self):
        self._busy = True
        w0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(kernel())
        self.excluded_wall += time.perf_counter() - w0
        self.excluded_cpu += time.process_time() - c0
        self._busy = False

    def slowdown(self):
        """(wall, CPU) factor by which the machine ran slower than the
        reference speed.  Wall time also counts time the host took the CPU
        away; CPU time does not."""
        wall = statistics.fmean(w for w, _ in self.samples)
        cpu = statistics.fmean(c for _, c in self.samples)
        return wall / REFERENCE_KERNEL_S, cpu / REFERENCE_KERNEL_S
