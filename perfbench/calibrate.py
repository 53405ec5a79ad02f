"""A fixed piece of pure-Python work that measures how fast the machine runs now.

The benchmark runs on shared machines whose speed drifts by tens of
percent within seconds and between runs a minute apart, for every
process alike.  Timing this fixed work next to each document and
scaling the document's time by ``NOMINAL_S / tick`` takes that drift
out: a time is reported as it would read on a machine that does this
work in ``NOMINAL_S``.  The work imports nothing from plumbtau and
never changes, so a change to plumbtau moves the scaled times and not
the scale.

The benchmark keeps itself and its subprocesses on one CPU
(``pin_to_one_cpu``), so the ticks read the speed of the CPU that runs
the timed work.

The work looks like plumbtau's where it matters for speed: it
allocates many small tuples, fills a dict and sorts by a key function,
and adds Fractions whose denominators grow.  Of the kinds of fixed work
tried, this one's time moved most nearly in proportion with plumbtau's
documents when the machine's speed changed (plain integer loops and
small Fraction eliminations sped up about 1.4 times as much as the
documents did, so scaling by them over-corrected).
"""

from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction

# What one tick reads at the reference speed: about its usual reading on
# the machine the benchmark was written on (Python 3.11, a shared 2-vCPU host).
NOMINAL_S = 0.0025
REPEATS = 5  # a tick is the median of these, so one interruption does not count


def _work() -> int:
    table = {}
    for i in range(1200):
        key = (i % 17, i % 13, i % 11, i * 7 % 5)
        table[key] = table.get(key, ()) + (i,)
    rows = sorted(table.items(), key=lambda kv: (len(kv[1]), kv[0]))
    harmonic = Fraction(0)
    for i in range(1, 100):
        harmonic += Fraction(1, i)
    return len(rows) + harmonic.denominator % 7


def tick() -> float:
    """Seconds the fixed work takes now (median of ``REPEATS``)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Clock:
    """Ticks between timed calls, and each call's time scaled by the ticks around it.

    Call ``record(seconds)`` right after each timed call; it takes the next
    tick.  ``scaled()`` then gives every recorded time multiplied by
    ``NOMINAL_S`` over the mean of the ticks around the call: the ones just
    before and after it, and further ones as long as they lie within the
    call's own duration of it, so a call that lasts seconds is scaled by
    the speed over seconds, not at two instants.
    """

    def __init__(self):
        self.ticks = []  # (perf_counter when the tick ended, tick seconds)
        self.calls = []  # (start, end, seconds, index of the tick before)
        self._tick()

    def _tick(self):
        seconds = tick()
        self.ticks.append((time.perf_counter(), seconds))

    def record(self, seconds: float) -> int:
        """Note a call that just took ``seconds``; returns its index in ``scaled()``."""
        end = time.perf_counter()
        self.calls.append((end - seconds, end, seconds, len(self.ticks) - 1))
        self._tick()
        return len(self.calls) - 1

    def scaled(self) -> list:
        out = []
        for start, end, seconds, before in self.calls:
            lo, hi = before, before + 1
            while lo > 0 and self.ticks[lo - 1][0] >= start - seconds:
                lo -= 1
            while hi + 1 < len(self.ticks) and self.ticks[hi + 1][0] <= end + seconds:
                hi += 1
            speed = statistics.fmean(t for _, t in self.ticks[lo : hi + 1])
            out.append(seconds * NOMINAL_S / speed)
        return out

    def tick_seconds(self) -> list:
        return [t for _, t in self.ticks]


def pin_to_one_cpu() -> int:
    """Keep this process and the ones it starts on its lowest allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
