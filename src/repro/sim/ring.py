"""The event-ring simulation kernel: cycle replay over the heap loop.

:class:`RingSimulator` is the third event kernel (after the seed
interpreter in :mod:`repro.sim._reference` and the compiled heap kernel
in :mod:`repro.sim.simulator`), selectable as ``--engine ring``.  It is
pinned trace-equivalent to both: identical
:class:`~repro.sim.simulator.NetChange` streams, values and simulation
times on every netlist and delay model.  Every live event runs on the
inherited compiled heap loop, and a cycle replay adds its recorded
count, so ``events_processed`` agrees with the compiled kernel too (the
seed interpreter's differs, as the compiled kernel's push-time
filtering already does).

What the ring adds is **cycle replay**.  A FANTOM hand-shake cycle
(:meth:`~repro.sim.harness.FantomHarness.apply`) starts and ends with
the kernel drained: nothing queued and ``now`` on the time grid.  There
the net values alone fix every later event, so the whole cycle is a
pure function of (values, column), and an 800-step Monte-Carlo walk
visits only a few dozen such pairs.  :meth:`RingSimulator.cycle_key`,
:meth:`~RingSimulator.cycle_capture`, :meth:`~RingSimulator.cycle_admits`
and :meth:`~RingSimulator.cycle_restore` let the harness memoise whole
cycles without writing a kernel field; the memo itself is per walk and
lives, with each cycle's judgement, in
:class:`~repro.sim.harness.FantomHarness`.  A capture names the state
it exits to, so the harness follows a run of consecutive memo hits
from capture to capture without touching the kernel, checks each hit
with :meth:`~RingSimulator.cycle_admits` against the run's accumulated
clock and event count, and restores the kernel once, from the run's
last capture, before the next live cycle or when it hands the kernel
back.  ``cycle_replays`` counts replayed cycles, and their events form
``replayed_events`` and join ``events_processed``, which therefore
still agrees with the compiled kernel.

Exactness comes from the resolved delay vector's time quantum
(:func:`~repro.sim.delays.negotiate_time_quantum`): every finite float
is a dyadic rational, so when the vector's largest denominator is
practical (``2**k``, ``k <= TICK_SHIFT_LIMIT``) every event time is a
multiple of ``2**-k``.  Below the horizon ``2**(53 - k)`` the float
sums and differences of event times are then exact, so a cycle
restored at another start time is bit-for-bit the live cycle it stands
for.  The built-in random sweep models
(``loop-safe``/``skewed``/``hostile``/``corner``) draw on the
:data:`~repro.sim.delays.TIME_GRID_BITS` grid precisely so their
campaign cells keep replay on.  The ``path`` in
:attr:`RingSimulator.kernel_stats` names the delay regime:

* ``ring`` — integral delays (``k = 0``), replay on;
* ``ticks`` — dyadic delays (``k > 0``), replay on;
* ``heap`` — replay off: the plain heap loop, for arbitrary stimuli.

A vector with no practical quantum (hand-annotated off-grid delays, or
a :class:`~repro.sim.delays.RandomDelay` built with ``grid_bits=None``)
starts on ``heap``.  An off-grid external ``schedule()``
(``off-grid-stimulus``) or event times approaching the horizon
(``overflow``) leave the grid for the rest of the simulator's life.
Every such migration is counted in :attr:`RingSimulator.kernel_stats`;
the path and migrations are the telemetry surfaced through
:class:`~repro.sim.monitors.ValidationSummary` and
``seance validate --json`` so a silent fast-path loss is visible.
"""

from __future__ import annotations

import heapq

from ..errors import SimulationError
from .delays import TICK_SHIFT_LIMIT, negotiate_time_quantum
from .simulator import Simulator, schedule_time_error

_INF = float("inf")


class RingSimulator(Simulator):
    """Event-driven simulation with hand-shake cycle replay.

    Construction, driving surface and observable behaviour (traces,
    values, time and ``events_processed``) are identical to
    :class:`~repro.sim.simulator.Simulator`, and so is every live
    event: it runs on the inherited heap loop.  When the resolved
    delays share a practical time quantum, the cycle methods let a
    caller replay whole drained-to-drained cycles (see module docs).
    A drop-in for arbitrary stimuli, ``stop_when`` callbacks that
    schedule included: anything off the grid just turns replay off.
    """

    def __init__(
        self,
        netlist,
        delays=None,
        initial_values=None,
        max_events: int = 200_000,
        inertial: bool = True,
    ):
        super().__init__(
            netlist,
            delays=delays,
            initial_values=initial_values,
            max_events=max_events,
            inertial=inertial,
        )
        # The compiled kernel's generated closures: every live event
        # runs on them, and they take over alone once replay is off.
        self._heap_run = self.run
        self._heap_schedule = self.schedule
        #: ``bytes(values)`` of the current drained state, once built;
        #: ``None`` after any ``run`` or ``schedule``.
        self._key: bytes | None = None

        delays = [*self._gate_delays, *self._dff_delays]
        shift = negotiate_time_quantum(delays, limit=TICK_SHIFT_LIMIT)
        #: Kernel telemetry: current engine path, the negotiated tick
        #: shift, cycle-replay counts, and any path migrations
        #: (reason -> count).  Everything here is deterministic for a
        #: deterministic workload.
        self.kernel_stats = {
            "path": "heap",
            "shift": 0 if shift is None else shift,
            "cycle_replays": 0,
            "replayed_events": 0,
            "migrations": {},
        }
        if shift is None:
            # No practical common quantum: the inherited heap kernel.
            return
        self.kernel_stats["path"] = "ring" if shift == 0 else "ticks"
        #: grid scale: ``at * _up`` is integral exactly for on-grid times.
        self._up = float(1 << shift)
        # Exactness horizon, in ticks: every tick must stay below 2**53
        # for the relative-time arithmetic to be exact.  The guard is
        # conservative — one run can extend the queue by at most the
        # remaining event budget times the largest delay, so checking at
        # run/schedule entry suffices.
        max_delay = max((int(d * self._up) for d in delays), default=1)
        self._tick_safe = float(
            2**53 - (max_events + 2) * (max_delay + 1)
        )

        self.run = self._ring_run
        self.schedule = self._ring_schedule

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def _ring_schedule(self, net: str, value: int, at: float) -> None:
        if not self.now <= at < _INF:
            raise schedule_time_error(net, at, self.now)
        nid = self._ids.get(net)
        if nid is None:
            raise SimulationError(f"unknown net {net!r}")
        self._key = None
        scaled = at * self._up
        if scaled >= self._tick_safe or not scaled.is_integer():
            # Beyond the exactness horizon, or off the grid: replay
            # would no longer be exact, so turn it off for good.
            self._migrate_to_heap(
                "overflow" if scaled >= self._tick_safe
                else "off-grid-stimulus"
            )
        self._sequence = seq = self._sequence + 1
        heapq.heappush(self._queue, (at, seq, nid, 1 if value else 0))

    def _ring_run(
        self,
        until=None,
        stop_when=None,
        stop_net=None,
        stop_value=1,
    ) -> float:
        self._key = None
        if self.now * self._up >= self._tick_safe:
            # The run could push event times past the exactness
            # horizon: turn replay off.
            self._migrate_to_heap("overflow")
        return self._heap_run(until, stop_when, stop_net, stop_value)

    def _migrate_to_heap(self, reason: str) -> None:
        """Turn replay off: the plain heap loop from here on.

        Idempotent: a caller that bound ``run``/``schedule`` before the
        migration keeps calling the grid wrappers, which then pass
        straight through to the heap loop without recounting.
        """
        stats = self.kernel_stats
        if stats["path"] == "heap":
            return
        stats["path"] = "heap"
        migrations = stats["migrations"]
        migrations[reason] = migrations.get(reason, 0) + 1
        self.run = self._heap_run
        self.schedule = self._heap_schedule

    # ------------------------------------------------------------------
    # Cycle replay (see module docs)
    # ------------------------------------------------------------------
    def cycle_key(self) -> bytes | None:
        """The exact state a hand-shake cycle would start from.

        ``None`` unless the kernel is drained on the grid (replay on,
        nothing queued, ``now`` on the grid below the horizon): then the
        net values alone determine every later event, and they are
        returned as hashable ``bytes``, cached until the next ``run`` or
        ``schedule``.
        """
        key = self._key
        if key is None and self.kernel_stats["path"] != "heap":
            scaled = self.now * self._up
            if (
                not self._queue
                and scaled < self._tick_safe
                and scaled.is_integer()
            ):
                self._key = key = bytes(self._values)
        return key

    def cycle_capture(self, start: float, events: int) -> tuple | None:
        """What :meth:`cycle_restore` needs to replay the cycle just run.

        Call after a live cycle that began at ``now == start`` with
        ``events`` processed, from a state :meth:`cycle_key` keyed.
        Returns ``(exit key, clock advance, event count, values,
        counts)``: the first three let a caller chain replays without
        the kernel.  ``None`` when the cycle did not end drained on the
        grid (it left events queued, or replay was turned off on the
        way).
        """
        key = self.cycle_key()
        if key is None:
            return None
        return (
            key, self.now - start, self._events_processed - events,
            list(self._values), list(self._counts),
        )

    def cycle_admits(self, now: float, processed: int) -> bool:
        """Whether a replayed cycle may end at ``now`` with ``processed``
        events in all.

        ``False`` when the live cycle could end differently: it would
        exceed ``max_events`` or cross the exactness horizon.  The
        caller then runs it live.  A run of replays is checked hit by
        hit, on its accumulated clock and event count.
        """
        return (
            processed <= self.max_events
            and now * self._up < self._tick_safe
        )

    def cycle_restore(
        self, capture: tuple, now: float, processed: int, replays: int
    ) -> int:
        """Land a run of ``replays`` admitted cycle replays at once.

        ``capture`` is the run's last cycle; ``now`` and ``processed``
        are the clock and event count the run ends on, each hit checked
        by :meth:`cycle_admits`.  Restores the exit values, sets the
        clock and the event count and counts the replays; nothing is
        queued or traced, as every live cycle left nothing queued and
        its scoring was captured with it.  Returns ``replays``.
        """
        key, _, _, values, counts = capture
        # Slice-assign so the list identities survive (the heap loop's
        # closure and values_reader closures hold these very lists).
        self._values[:] = values
        self._counts[:] = counts
        self._key = key
        stats = self.kernel_stats
        stats["cycle_replays"] += replays
        stats["replayed_events"] += processed - self._events_processed
        self._events_processed = processed
        self.now = now
        return replays
