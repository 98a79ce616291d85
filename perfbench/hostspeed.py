"""Host speed, from fixed reference loops run between timed phases.

The shared host this benchmark was built on changes how fast it runs
CPU-bound Python by up to 1.6x, in phases of tens of seconds to minutes,
and CPU time slows with wall time (the slowdown is not stolen time).  A
best-of-run estimator cannot remove a phase that covers a whole run, so
the benchmark runs fixed reference loops between its timed phases and
scales the run's CPU time to a fixed reference speed: the speed at which
each loop takes its time in :data:`REFERENCE`.

Time the process spent waiting (wall time minus CPU time, e.g. a store
round-trip over loopback) is not scaled: it does not depend on how fast
the host runs Python.

The reference loops are pure Python and fixed: they use nothing of the
program under test, so a change to the program moves the program's time
and not the reference.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass

# A working set larger than a core's private caches.
_TABLE = list(range(200_000))
_PICKS = [random.Random(3).randrange(len(_TABLE)) for _ in range(40_000)]


class _Slot:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _dicts() -> int:
    """Tuple keys into a growing dict, then a sort."""
    rng = random.Random(7)
    counts: dict = {}
    acc = 0
    for i in range(4_000):
        key = (rng.getrandbits(12), i & 63)
        counts[key] = counts.get(key, 0) + 1
        acc ^= hash(key) & 0xFFFF
    return acc + len(sorted(counts.items()))


def _pointers() -> int:
    """Random reads across a list too large for the private caches."""
    acc = 0
    table = _TABLE
    for pick in _PICKS:
        acc += table[pick]
    return acc


def _arithmetic() -> int:
    acc = 0
    for i in range(60_000):
        acc = (acc * 31 + i) & 0xFFFFFF
    return acc


def _objects() -> int:
    """Attribute reads and keyed sorts over small objects."""
    slots = [_Slot(i, i * 2) for i in range(3_000)]
    acc = 0
    for _ in range(5):
        for slot in slots:
            acc += slot.a ^ slot.b
        slots.sort(key=lambda slot: (slot.b * 7) % 1000)
    return acc


#: The reference loops and the seconds each takes at the reference speed
#: (their times on the 2-vCPU VM the baseline was taken on).
REFERENCE = ((_dicts, 0.0072), (_pointers, 0.0018), (_arithmetic, 0.0062),
             (_objects, 0.0041))

#: Seconds of reference loops per second of measured work.
SHARE = 0.2


class HostSpeed:
    """The host's average speed over a run, from reference loops run for
    a fixed share of the time between the run's timed phases.

    The host's speed also flickers by 30% over fractions of a second, so
    one short reference timing says little; the loops' total time over
    the whole run, sampled in proportion to the time measured, tracks
    the speed the program ran at on average.
    """

    def __init__(self):
        self.took = 0.0
        self.nominal = 0.0

    def sample(self, covering: float) -> None:
        """Run the reference loops for :data:`SHARE` of ``covering``
        seconds (one round at least).  The garbage collector is off
        meanwhile: a collection would time the program's heap."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            deadline = time.perf_counter() + SHARE * covering
            while True:
                for loop, nominal in REFERENCE:
                    start = time.perf_counter()
                    loop()
                    self.took += time.perf_counter() - start
                    self.nominal += nominal
                if time.perf_counter() >= deadline:
                    break
        finally:
            if enabled:
                gc.enable()

    @property
    def slowdown(self) -> float:
        """How many times slower than the reference speed the host ran."""
        return self.took / self.nominal


@dataclass(frozen=True)
class Span:
    """Wall and process CPU seconds of one timed phase."""

    wall: float
    cpu: float

    def scaled(self, slowdown: float) -> float:
        """Seconds at the reference speed, on a host ``slowdown`` times
        slower than it: CPU time scaled, waiting kept."""
        busy = min(self.cpu, self.wall)
        return (self.wall - busy) + busy / slowdown


class Clock:
    """Starts timing a phase; :meth:`span` reads it."""

    def __init__(self):
        self.wall = time.perf_counter()
        self.cpu = time.process_time()

    def span(self) -> Span:
        return Span(
            time.perf_counter() - self.wall, time.process_time() - self.cpu
        )
