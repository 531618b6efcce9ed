"""Host speed, from a fixed pure-Python kernel that the benchmark owns.

The benchmark's host may share its cores with other machines: on a
2-core x86-64 VM the same ``bounds --check`` op measured 122 ms, then
141 ms, then 202 ms in three batches a minute apart, with its CPU time
moving the same way.  Every run therefore also times :func:`kernel`, and
the end-to-end metrics of the JSON line are rescaled to the host speed
at which the kernel takes ``REFERENCE_S``: times are divided, rates
multiplied, by the slowdown (kernel time over ``REFERENCE_S``) sampled
right after the op or request they measure, or while and after the
campaign seed or set-up runs (:meth:`HostSpeed.during`).  Interleaved
with 150 ``bounds --check`` ops whose ten-op medians moved by 36 %
(quartile distance over median), the medians of the ops rescaled one by
one moved by 5 %.  The raw figures are printed beside the rescaled ones.

The kernel is plain interpreter work — dict, list, string and integer
operations — that fits in the first-level caches, so the op that ran just
before it does not slow it down.  (A variant that also walked a 12 MB
table ran 40 % slower right after an op than when idle: it would have
cancelled part of any growth in the program's own memory traffic.)  It
touches no code under test, so a change to the program moves the
rescaled figures as it moves the raw ones.
"""

from __future__ import annotations

import threading
import time

from perfbench import stats

#: Kernel time on the reference host (a 2-core x86-64 VM at its typical
#: speed); rescaled figures read as seconds on that host.
REFERENCE_S = 0.002
#: Seconds between kernel samples taken while a set-up or seed runs.
PERIOD_S = 0.05


def kernel() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(6000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc ^= (i * 31 + table[key]) & 0xFFFF
    words = [str(i) for i in range(1500)]
    return acc + len(" ".join(words).split())


class HostSpeed:
    """Kernel timings taken during one run, and the run's set-up times."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: (seconds, slowdown right after) per set-up.
        self.setups: list[tuple[float, float]] = []

    def sample(self, count: int = 1) -> float:
        """Time the kernel ``count`` times; returns their slowdown."""
        for _ in range(count):
            started = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - started)
        return stats.median(self.samples[-count:]) / REFERENCE_S

    @property
    def slowdown(self) -> float:
        """Median kernel time of the run over the reference."""
        return stats.median(self.samples) / REFERENCE_S

    def during(self, work, after: int):
        """Call ``work()`` while a second thread times the kernel every
        ``PERIOD_S``; returns its result, its seconds and the slowdown
        over those samples and ``after`` more taken right after it."""
        stop = threading.Event()
        taken: list[float] = []

        def sampler() -> None:
            while not stop.wait(PERIOD_S):
                started = time.perf_counter()
                kernel()
                taken.append(time.perf_counter() - started)

        thread = threading.Thread(target=sampler)
        thread.start()
        try:
            started = time.perf_counter()
            result = work()
            seconds = time.perf_counter() - started
        finally:
            stop.set()
            thread.join()
        self.samples += taken
        self.sample(after)
        return (result, seconds,
                stats.median(taken + self.samples[-after:]) / REFERENCE_S)

    def time_setup(self, make):
        """Call ``make()`` as one timed set-up; returns what it made.

        The set-up is rescaled by samples taken while it runs (its
        processes leave a core free most of the time) and five after:
        over five seeds of ``serve`` this took the spread of ``setup_s``
        from 0.35 (samples after only) to 0.05.
        """
        made, seconds, slowdown = self.during(make, after=5)
        self.setups.append((seconds, slowdown))
        return made

    def setup_s(self, rescaled: bool) -> float:
        """Median set-up time; ``rescaled``: each set-up over the
        slowdown sampled while it ran and right after it."""
        return stats.median([seconds / slowdown if rescaled else seconds
                             for seconds, slowdown in self.setups])
