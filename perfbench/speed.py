"""Host-speed probe: every time the benchmark reports is scaled to a reference
host speed.

On the shared 2-vCPU machine this benchmark was built on, the same pure-Python
work runs up to 3x slower from one second to the next and its floor drifts by
tens of percent within minutes, while the engine is fully deterministic.  The
probe times a fixed kernel (exact Fraction elimination plus tuple-keyed dict
updates, the engine's kind of work, but none of the engine's code, so no
engine change can move it) every PROBE_INTERVAL_S seconds from a SIGALRM
interval timer, so it keeps sampling inside long cases too; the harness
subtracts the probe's own time from the case it interrupted.  A case that ran
from a to b is reported as

    seconds * REFERENCE_S / median(kernel times from a - 0.5 s to b + 0.5 s)

that is, in seconds at the host speed where the kernel takes REFERENCE_S.
The unscaled times are printed alongside, for comparison.

The two vCPUs are not equally contended, and a child process may start on
the other one.  While set-up is measured, pinned_to_fastest_cpu() keeps the
benchmark and the interpreters it starts on one CPU, so that the probe and
the measured start-ups share it.  The passes run unpinned: pinned, a pass
cannot leave a CPU that becomes contended, and the figures spread wider.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.020        # kernel time on an unloaded 2-vCPU VM with CPython 3.11
PROBE_INTERVAL_S = 0.2
MARGIN_S = 0.5


def kernel():
    n = 16
    M = [[Fraction((3 * i + 5 * j * j) % 13 - 6, 1 + (i * j) % 5) for j in range(n)]
         for i in range(n)]
    r = 0
    for c in range(n):
        k = next((i for i in range(r, n) if M[i][c]), None)
        if k is None:
            continue
        M[r], M[k] = M[k], M[r]
        inv = 1 / M[r][c]
        M[r] = [inv * x for x in M[r]]
        for i in range(n):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        r += 1
    memo = {}
    for i in range(20000):
        key = (i % 211, (i * 7) % 101)
        memo[key] = memo.get(key, 0) + i
    return r, len(memo)


@contextmanager
def pinned_to_fastest_cpu():
    """Restrict this process, for the duration, to the allowed CPU where
    kernel() is fastest now; a no-op where affinity cannot be set."""
    try:
        allowed = os.sched_getaffinity(0)
    except (AttributeError, OSError):
        yield
        return
    best, best_s = None, float("inf")
    for cpu in sorted(allowed):
        os.sched_setaffinity(0, {cpu})
        times = []
        for _ in range(5):
            t0 = perf_counter()
            kernel()
            times.append(perf_counter() - t0)
        if statistics.median(times) < best_s:
            best, best_s = cpu, statistics.median(times)
    os.sched_setaffinity(0, {best})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class SpeedProbe:
    """Kernel timings over a run, and the scale factor they give for any interval."""

    def __init__(self):
        kernel()                       # the first call pays for warm-up
        self.times = []                # probe midpoints, ascending
        self.kernel_s = []
        self.spent_s = 0.0             # total probe time, for the harness to subtract
        self._busy = False

    def sample(self):
        if self._busy:                 # an alarm that lands inside a sample
            return
        self._busy = True
        try:
            t0 = perf_counter()
            kernel()
            t1 = perf_counter()
            self.times.append((t0 + t1) / 2)
            self.kernel_s.append(t1 - t0)
            self.spent_s += t1 - t0
        finally:
            self._busy = False

    @contextmanager
    def sampling(self):
        """Sample every PROBE_INTERVAL_S seconds for the duration."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale_over(self, a, b):
        """REFERENCE_S over the median kernel time from a - MARGIN_S to
        b + MARGIN_S (the three nearest probes if fewer fall there)."""
        lo = bisect.bisect_left(self.times, a - MARGIN_S)
        hi = bisect.bisect_right(self.times, b + MARGIN_S)
        if hi - lo >= 3:
            window = self.kernel_s[lo:hi]
        else:
            mid = (a + b) / 2
            nearest = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))[:3]
            window = [self.kernel_s[i] for i in nearest]
        return REFERENCE_S / statistics.median(window)
