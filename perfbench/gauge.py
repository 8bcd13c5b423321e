"""A machine-speed gauge that takes host contention out of measured times.

On a shared host the CPU this benchmark runs on is slowed, in bursts of a
few tens of milliseconds, by work outside the container, and how dense the
bursts are drifts over minutes. A few-second pass averages over hundreds of
bursts, so its time moves with that drift by tens of percent; but a short
fixed kernel, timed again and again, still runs at full speed between the
bursts, and its fastest run in a minute is steady to a few percent.

The gauge runs that kernel (a little numpy MM-style arithmetic and a little
pure-Python string and dict work, like btrank's solver and parser) for a
while right before and right after every timed interval. The interval's
*corrected* time is its measured time times the kernel's fastest time on the
machine the bounds were set on over the kernel's mean time around the
interval: the time it would have taken there, at the speed that machine
reaches between bursts. The reference is a constant, not the fastest time
seen in the run, because some runs are slowed evenly throughout and their
own fastest time is slow too. The kernel is part of the benchmark and does
not change with the program under test.

Intervals that start a process (the ``crowd-cli`` passes, the set-up
imports) are slowed more than that in-process kernel is, so their gauge
also starts a bare interpreter in each unit (:func:`process_kernel`).
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import numpy as np

#: Share of the last interval's length to sample before the next one.
SAMPLE_SHARE = 0.3
#: Shortest sampling block, in seconds.
MIN_SAMPLE_S = 0.25
#: Fastest time of :func:`kernel` and of :func:`process_kernel`, in seconds,
#: in 15 s of each back to back on a 2-core Xeon slice of a shared x86-64
#: host (Python 3.11.7, numpy 2.4.6). Only their ratio to the times measured
#: in a run matters: on other hardware every corrected time scales alike.
KERNEL_S = 0.00345
PROCESS_KERNEL_S = 0.01114

_RNG = np.random.default_rng(20141105)
_WEIGHTS = _RNG.random((300, 300))
_ROW = _RNG.random(300) + 0.5
_LINES = [f"T{k % 300:03d},T{k * 7 % 300:03d},{('home_win', 'away_win', 'tie')[k % 3]}"
          for k in range(5000)]
# Preallocated, so the kernel's speed does not depend on the state of the
# process's memory allocator.
_U = np.empty(300)
_PAIRS = np.empty((300, 300))
_DENOM = np.empty(300)


def kernel() -> float:
    """One unit of fixed work, a few milliseconds long."""
    _U[:] = _ROW
    for _ in range(8):
        np.add.outer(_U, _U, out=_PAIRS)
        np.divide(_WEIGHTS, _PAIRS, out=_PAIRS)
        _PAIRS.sum(axis=1, out=_DENOM)
        np.divide(_ROW, _DENOM, out=_U)
        np.divide(_U, _U[0], out=_U)
    counts: dict[tuple[str, ...], int] = {}
    for line in _LINES:
        key = tuple(line.split(","))
        counts[key] = counts.get(key, 0) + 1
    return float(_U.sum()) + len(counts)


def process_kernel() -> float:
    """:func:`kernel` plus the start and exit of a bare interpreter."""
    pid = os.posix_spawn(sys.executable, [sys.executable, "-I", "-S", "-c", "pass"], {})
    os.waitpid(pid, 0)
    return kernel()


for _ in range(5):  # warm up
    kernel()


class Gauge:
    """Kernel timings of one process and the corrections they give."""

    def __init__(self, unit=kernel, reference_s=KERNEL_S):
        self.unit = unit
        self.reference_s = reference_s
        self.blocks: list[float] = []  # mean unit seconds of each block

    def sample(self, seconds: float) -> int:
        """Time the unit back to back for at least ``seconds``; returns the
        index of the block, for :meth:`corrected`."""
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            clock = time.perf_counter()
            self.unit()
            times.append(time.perf_counter() - clock)
        self.blocks.append(statistics.fmean(times))
        return len(self.blocks) - 1

    def around(self, last_s: float) -> int:
        """Sample a block sized after the last interval's length."""
        return self.sample(max(MIN_SAMPLE_S, SAMPLE_SHARE * last_s))

    def slowdown(self, before: int, after: int) -> float:
        """Mean unit time of two blocks over the unit's reference time."""
        return (self.blocks[before] + self.blocks[after]) / (2.0 * self.reference_s)

    def corrected(self, seconds: float, before: int, after: int) -> float:
        """``seconds`` measured between blocks ``before`` and ``after``, at
        the reference machine's uncontended speed."""
        return seconds / self.slowdown(before, after)
