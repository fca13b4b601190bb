"""Host-speed correction for wall times measured on a shared machine.

On a shared 2-vCPU virtual machine (Intel Xeon, 2.0 GHz nominal) the same
op ranges over +-25% within minutes, for interpreter-bound and BLAS-bound
code alike, and CPU time tracks wall time: the host itself runs faster or
slower.  A probe run between ops tracked that poorly, but a probe run
*during* the op, on the same CPU, does: every period a timer signal runs a
fixed interpreter kernel and records its duration.  Over 20-40 s of
back-to-back ops of each workload, op time and median kernel time
correlated at 0.91-0.97, and the relative standard deviation of the
corrected op time was 0.04-0.06 against 0.06-0.23 raw.

The kernel touches almost no memory, so the program's own cache use barely
moves it: its median was 0.23-0.25 ms during all three workloads.  Code
that holds the interpreter lock in one long native call delays the signal,
not the sample.

A corrected time is wall time x REFERENCE_S / (median kernel time during
it): the wall time on a host where the kernel takes REFERENCE_S, about its
typical duration on that machine.  This module imports only the standard
library, so a fresh interpreter can time `import wplap` under it.
"""
from __future__ import annotations

import signal
import time

REFERENCE_S = 2.3e-4


def kernel():
    """Fixed interpreter work."""
    x = 0
    for i in range(5000):
        x += i & 7
    return x


class HostSpeed:
    """Context manager that samples the kernel while its block runs.

    Uses SIGALRM and ITIMER_REAL, so only one may be active at a time, in
    the main thread."""

    def __init__(self, period_s: float = 0.05):
        self.period_s = period_s
        self.samples: list = []

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self) -> float:
        """REFERENCE_S over the median kernel time seen in the block."""
        s = sorted(self.samples)
        median = 0.5 * (s[(len(s) - 1) // 2] + s[len(s) // 2])
        return REFERENCE_S / median
