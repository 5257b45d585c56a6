"""Timings corrected for the speed phases of a shared host.

On a shared 2-vCPU Intel Xeon host (Python 3.11.7), the same pure-Python
work ran at two speeds about 1.6x apart, in phases lasting seconds to tens of
seconds, in CPU time as well as wall time (likely a busy sibling hardware
thread). A 30-second run catches a random mix of phases, which alone moved
run medians by 20-40%. Other processes on the same CPU also stretch wall
time while this one waits to be scheduled.

So calls are timed in the CPU time of this single thread, which leaves
out the waiting, and the benchmark times a fixed interpreter-bound kernel in the
same thread: between calls, once every `INTERVAL_S` of CPU time at most,
and inside any call that runs longer than that, from a profiling-timer
signal. A call's time is its CPU time minus the time spent in those
kernel runs, scaled by `REFERENCE_S / kernel time`, where the kernel time
is the mean of the timings taken during the call and just before and
after it. Short calls are never interrupted, so their tails stay clean.
Scaled time is what the call would take at the kernel's reference speed.
The kernel does not touch `mprs`, so a change to the package cannot move
it. Run records keep the raw times too.

CPU time leaves out time blocked on I/O; the workloads read only small
files that the same run has just written.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time
from typing import Iterator

_now = time.thread_time  # CPU time of this (the only) thread: user plus system

REFERENCE_S = 0.0004  # kernel time that defines one scaled second
INTERVAL_S = 0.1
REPEATS = 2


class _Node:
    __slots__ = ("key", "next")

    def __init__(self, key: int, nxt: "_Node | None"):
        self.key = key
        self.next = nxt


def _kernel() -> int:
    # Dict, tuple, attribute and allocation work, like the package's own.
    table: dict[tuple[int, int], int] = {}
    head = None
    for i in range(500):
        key = (i * 7919 % 127, i & 7)
        table[key] = table.get(key, 0) + 1
        head = _Node(key[0], head)
    total = 0
    while head is not None:
        total += table.get((head.key, 0), 0)
        head = head.next
    return total + len(sorted(table))


def kernel_seconds() -> float:
    """Fastest of `REPEATS` kernel runs."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = _now()
        _kernel()
        best = min(best, _now() - t0)
    return best


class Calibration:
    """Kernel timings along a run, and the scale they give each interval."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.kernel: list[float] = []
        self.stolen = 0.0  # seconds spent timing the kernel
        self.active = False  # the signal handler is installed
        self._busy = False

    def take(self, *_signal_args) -> None:
        if self._busy:  # a tick that lands inside a tick
            return
        self._busy = True
        t0 = _now()
        k = kernel_seconds()
        t1 = _now()
        self.at.append(t1)
        self.kernel.append(k)
        self.stolen += t1 - t0
        self._busy = False

    def maybe_take(self) -> None:
        if not self.at or _now() - self.at[-1] >= INTERVAL_S:
            self.take()

    @contextlib.contextmanager
    def running(self) -> Iterator["Calibration"]:
        """Let `Interval`s in the block take kernel timings.

        Signals reach only the main thread, which is where the benchmark
        runs.
        """
        self.take()
        previous = signal.signal(signal.SIGPROF, self.take)
        self.active = True
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            self.active = False
            signal.signal(signal.SIGPROF, previous)
            self.take()

    def scale(self, start: float, end: float) -> float:
        """Factor from CPU seconds in [start, end] to scaled seconds."""
        if not self.kernel:
            return 1.0
        lo = max(bisect.bisect_right(self.at, start) - 1, 0)
        hi = min(bisect.bisect_left(self.at, end), len(self.at) - 1)
        window = self.kernel[lo : hi + 1]
        return REFERENCE_S / (sum(window) / len(window))


class Interval:
    """Times one stretch of work on a running `Calibration`.

    A kernel timing is taken before the work when the last one is older
    than `INTERVAL_S`, and the interval timer is armed only while the work
    runs, so only work longer than `INTERVAL_S` is ever interrupted.
    """

    def __init__(self, calibration: Calibration) -> None:
        calibration.maybe_take()
        self.calibration = calibration
        self._stolen = calibration.stolen
        self.stolen = 0.0
        if calibration.active:
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self.start = _now()
        self.end = self.start

    def stop(self) -> "Interval":
        self.end = _now()
        if self.calibration.active:
            signal.setitimer(signal.ITIMER_PROF, 0)
        self.stolen = self.calibration.stolen - self._stolen
        return self

    @property
    def raw_seconds(self) -> float:
        return self.end - self.start - self.stolen

    def scaled(self) -> float:
        return self.raw_seconds * self.calibration.scale(self.start, self.end)
