"""Host-speed calibration: timings scaled to a fixed reference speed.

The benchmark runs on a share of a machine whose speed moves with what
other tenants run. On a 2-vCPU VM, the same 160 exact solves (identical
simplex iteration counts) took 14.7 to 20.8 s in consecutive repeats, and
CPU time moved with wall time, so no choice of clock removes it; runs of
the same code spread by 14-36 % of their median.

A :class:`HostClock` keeps a fixed pure-Python kernel busy for about
``SHARE`` of a run's wall time: ``tick`` at an operation boundary times
the kernel as many times as the time since the last sample calls for, and
``interleaved`` times it from a timer signal inside a long in-process
operation. ``speed`` is the reference kernel time over the median kernel
time of the run. A timed interval, less the kernel runs inside it, is
converted to reference seconds by multiplying it by ``speed **
ELASTICITY``.

The kernel's speed moves more than the program's: over 45 runs of the
three workloads (host speed 0.89-1.62), the exponent that left the least
spread across runs was 0.6-0.7 on every workload. The coefficient of
variation of the median operation time, unscaled / exponent 0.6 / 1.0,
was 13 / 5.7 / 7.1 % (emit_paper), 11.5 / 3.9 / 9.8 % (compare_light) and
13 / 4.1 / 5.4 % (oracle_desk). The kernel imports nothing from recbid,
so no change to the program moves it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

KERNEL_LOOPS = 55_000
REF_KERNEL_S = 0.010
ELASTICITY = 0.6
SHARE = 0.04
MAX_RUNS_PER_TICK = 10


def kernel() -> float:
    """Seconds for a fixed amount of interpreter work (loop, arithmetic, dict)."""
    start = perf_counter()
    table = {}
    acc = 0
    for i in range(KERNEL_LOOPS):
        acc += i * i % 7
        table[i & 1023] = acc
    return perf_counter() - start


class HostClock:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self._sampling = False

    def sample(self) -> None:
        """Time one kernel run now."""
        start = perf_counter()
        value = kernel()
        self.starts.append(start)
        self.ends.append(perf_counter())
        self.kernel_s.append(value)

    def _on_timer(self, signum, frame) -> None:
        # A signal that lands inside a sample (a stalled host) is dropped,
        # so that samples never overlap.
        if not self._sampling:
            self._sampling = True
            try:
                self.sample()
            finally:
                self._sampling = False

    def tick(self) -> None:
        """Time the kernel enough times to cover the wall time since the
        last sample at ``SHARE``; at least once."""
        since = perf_counter() - self.ends[-1] if self.ends else 0.0
        runs = round(since * SHARE / REF_KERNEL_S)
        for _ in range(min(max(runs, 1), MAX_RUNS_PER_TICK)):
            self.sample()

    @contextlib.contextmanager
    def interleaved(self):
        """Sample from a timer signal while the body runs in this thread.

        Only for a body that computes in this process: while the process
        waits for a child, a sample would run beside the child rather than
        in place of the work.
        """
        every = REF_KERNEL_S / SHARE
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, every, every)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self) -> float:
        """The run's host speed: 1.0 when the kernel takes ``REF_KERNEL_S``."""
        return REF_KERNEL_S / statistics.median(self.kernel_s)

    def ref_seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]``."""
        lo = bisect_left(self.starts, start)
        hi = bisect_right(self.ends, end)
        inside = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        return (end - start - inside) * self.speed() ** ELASTICITY


class NoClock:
    """Stands in for a HostClock in the traced run: samples nothing."""

    def tick(self) -> None:
        pass

    def interleaved(self):
        return contextlib.nullcontext()
