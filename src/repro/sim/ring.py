"""The event-ring simulation kernel: segment replay over the heap loop.

:class:`RingSimulator` is the third event kernel (after the seed
interpreter in :mod:`repro.sim._reference` and the compiled heap kernel
in :mod:`repro.sim.simulator`), selectable as ``--engine ring``.  It is
pinned trace-equivalent to both: identical
:class:`~repro.sim.simulator.NetChange` streams, values and simulation
times on every netlist and delay model.  Every live event runs on the
inherited compiled heap loop, and a replay adds its segment's recorded
count, so ``events_processed`` agrees with the compiled kernel too (the
seed interpreter's differs, as the compiled kernel's push-time
filtering already does).

What the ring adds is **run-segment replay**.  A FANTOM hand-shake
revisits a small set of ``(net values, queued events, wait)``
situations over and over (the walk graph has few distinct edges).  When
every event time is exact relative to the run's start, each ``run()``
call is a pure function of that situation, so completed segments are
memoised on the compiled program (shared by every campaign cell over
the same machine and delay vector) and replayed: values, counts, trace,
queue and the clock advance in O(changes) with no event processing at
all.

Exactness comes from the resolved delay vector's time quantum
(:func:`~repro.sim.delays.negotiate_time_quantum`): every finite float
is a dyadic rational, so when the vector's largest denominator is
practical (``2**k``, ``k <= TICK_SHIFT_LIMIT``) every event time is a
multiple of ``2**-k``.  Below the horizon ``2**(53 - k)`` the float
differences ``t - start`` and sums ``start + dt`` a segment is recorded
and replayed with are then exact, so a replay is bit-for-bit the live
run it stands for.  The built-in random sweep models
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
(``overflow``) leave the grid for the rest of the simulator's life; the
queue is the heap throughout, so nothing is converted.  Every such
migration is counted in :attr:`RingSimulator.kernel_stats`; the path
and migrations are the telemetry surfaced through
:class:`~repro.sim.monitors.ValidationSummary` and
``seance validate --json`` so a silent fast-path loss is visible.
"""

from __future__ import annotations

import heapq

from ..errors import SimulationError
from .delays import TICK_SHIFT_LIMIT, negotiate_time_quantum
from .simulator import (
    NetChange,
    Simulator,
    plan_cache_get,
    plan_cache_put,
    run_time_error,
    schedule_time_error,
)

_INF = float("inf")


class _Segment:
    """One memoised run segment (see module docs)."""

    __slots__ = (
        "events", "end_dt", "exit_values", "exit_counts", "trace", "queue",
        "next",
    )

    def __init__(self, events, end_dt, exit_values, exit_counts, trace,
                 queue):
        self.events = events
        self.end_dt = end_dt
        #: successor edges: (externals signature, run args) -> _Segment.
        #: The post-replay state is exact, so the next ``run()``'s full
        #: key is a function of this segment, the externally scheduled
        #: events since, and the call's arguments — steady-state walks
        #: chain segment to segment without rebuilding keys at all.
        self.next: dict = {}
        #: Complete post-run net values.  The entry values are part of
        #: the segment key, so the exit state is fixed — storing it whole
        #: lets a replay restore it with one C-level slice copy instead
        #: of a Python loop over per-net deltas.
        self.exit_values = exit_values
        #: Complete post-run per-gate ones-counts (derived from values,
        #: hence equally fixed per segment).
        self.exit_counts = exit_counts
        #: ((dt, net, value), ...) watched changes, in apply order.
        self.trace = trace
        #: ((dt, nid, value, tracked), ...) the queue left behind, in
        #: ``(time, sequence)`` pop order.
        self.queue = queue


class RingSimulator(Simulator):
    """Event-driven simulation with run-segment replay.

    Construction, driving surface and observable behaviour (traces,
    values, time and ``events_processed``) are identical to
    :class:`~repro.sim.simulator.Simulator`, and so is every live
    event: it runs on the inherited heap loop.  When the resolved
    delays share a practical time quantum, repeated run segments are
    replayed from the segment cache instead.  A drop-in for arbitrary
    stimuli, ``stop_when`` callbacks that schedule included: anything
    off the grid just turns replay off.
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
        #: a replayed-but-unmaterialised end queue: ``(segment, start,
        #: sequence)``.  In steady chained replay each segment's end
        #: queue is replaced by its successor's before anything reads
        #: it, so :meth:`_replay` only stores this stub (reserving the
        #: entries' sequence numbers) and :meth:`_materialise_queue`
        #: writes them into the heap (and the tracked ``_pending``
        #: entries) on first genuine access.  Invariant: while the stub
        #: is set, the heap holds only external pushes made since.
        self._queue_stub: tuple[_Segment, float, int] | None = None

        delays = [*self._gate_delays, *self._dff_delays]
        shift = negotiate_time_quantum(delays, limit=TICK_SHIFT_LIMIT)
        #: Kernel telemetry: current engine path, the negotiated tick
        #: shift, segment-replay counts, and any path migrations
        #: (reason -> count).  Everything here is deterministic for a
        #: deterministic workload.
        self.kernel_stats = {
            "path": "heap",
            "shift": 0 if shift is None else shift,
            "replays": 0,
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
        self._plan_key = (tuple(self._gate_delays), tuple(self._dff_delays))
        self._segments: dict | None = None
        #: externally scheduled events since the last anchored run
        #: (absolute time, nid, value) — the successor-edge signature.
        self._ext_log: list[tuple[float, int, int]] = []
        #: the segment whose replay (or recording) produced the current
        #: state, when nothing but logged externals touched it since.
        self._last_segment: _Segment | None = None

        self.run = self._ring_run
        self.schedule = self._ring_schedule

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def watch(self, *nets: str) -> None:
        super().watch(*nets)
        # The watched set is part of a segment's observable output.
        self._segments = None
        self._last_segment = None

    def _ring_schedule(self, net: str, value: int, at: float) -> None:
        if not self.now <= at < _INF:
            raise schedule_time_error(net, at, self.now)
        nid = self._ids.get(net)
        if nid is None:
            raise SimulationError(f"unknown net {net!r}")
        scaled = at * self._up
        if scaled >= self._tick_safe or not scaled.is_integer():
            # Beyond the exactness horizon, or off the grid: replay
            # would no longer be exact, so turn it off for good.
            self._migrate_to_heap(
                "overflow" if scaled >= self._tick_safe
                else "off-grid-stimulus"
            )
            self._heap_schedule(net, value, at)
            return
        v = 1 if value else 0
        self._ext_log.append((at, nid, v))
        self._sequence = seq = self._sequence + 1
        heapq.heappush(self._queue, (at, seq, nid, v))

    def _migrate_to_heap(self, reason: str) -> None:
        """Turn replay off: the plain heap loop from here on."""
        self._materialise_queue()
        self._last_segment = None
        stats = self.kernel_stats
        stats["path"] = "heap"
        migrations = stats["migrations"]
        migrations[reason] = migrations.get(reason, 0) + 1
        self.run = self._heap_run
        self.schedule = self._heap_schedule

    # ------------------------------------------------------------------
    # Queue inspection (the base class reads self._queue directly)
    # ------------------------------------------------------------------
    def _materialise_queue(self) -> None:
        """Write a pending replay stub's end queue into the heap."""
        stub = self._queue_stub
        if stub is None:
            return
        self._queue_stub = None
        segment, start, seq = stub
        pending = self._pending
        entries = []
        for dt, nid, value, tracked in segment.queue:
            seq += 1
            if tracked:
                pending[nid] = seq
            entries.append((start + dt, seq, nid, value))
        # A sorted list is already a valid heap; external pushes made
        # since the replay carry later sequence numbers.  Written in
        # place: the heap loop's closure binds this very list.
        queue = self._queue
        if queue:
            entries += queue
            heapq.heapify(entries)
        queue[:] = entries

    def has_live_events(self) -> bool:
        self._materialise_queue()
        return super().has_live_events()

    def pending_events(self) -> int:
        stub = self._queue_stub
        stubbed = 0 if stub is None else len(stub[0].queue)
        return stubbed + super().pending_events()

    def _queue_signature(self, start: float) -> tuple:
        """The heap as ``(dt, nid, value, tracked)`` in pop order."""
        pending = self._pending
        return tuple(
            (t - start, nid, value, pending[nid] == seq)
            for t, seq, nid, value in sorted(self._queue)
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _ring_run(
        self,
        until=None,
        stop_when=None,
        stop_net=None,
        stop_value=1,
    ) -> float:
        now = self.now
        if until is not None and not until >= now:
            raise run_time_error(until, now)
        scaled = now * self._up
        if scaled >= self._tick_safe:
            # The next run could push event times past the exactness
            # horizon: turn replay off.
            self._migrate_to_heap("overflow")
            return self._heap_run(until, stop_when, stop_net, stop_value)
        if stop_when is not None or not scaled.is_integer():
            # Callbacks may inspect or schedule arbitrarily, and an
            # off-grid ``now`` makes relative times inexact: run live,
            # unmemoised.
            self._last_segment = None
            self._materialise_queue()
            return self._heap_run(until, stop_when, stop_net, stop_value)

        until_dt = None if until is None else until - now

        # Successor chaining: the state is the last segment's exact
        # output plus the logged externals, so the full key is already
        # determined — follow the cached edge without rebuilding it.
        last = self._last_segment
        self._last_segment = None
        edge = None
        if last is not None:
            log = self._ext_log
            edge = (
                tuple((at - now, nid, v) for at, nid, v in log)
                if log
                else (),
                until_dt, stop_net, stop_value,
            )
            nxt = last.next.get(edge)
            if (
                nxt is not None
                and self._events_processed + nxt.events <= self.max_events
            ):
                self._ext_log.clear()
                self._last_segment = nxt
                return self._replay(nxt)
        self._ext_log.clear()

        segments = self._segment_cache()
        self._materialise_queue()
        values = self._values
        key = (
            tuple(values), self._queue_signature(now), until_dt, stop_net,
            stop_value,
        )
        segment = segments.get(key)
        if (
            segment is not None
            and self._events_processed + segment.events <= self.max_events
        ):
            if edge is not None:
                last.next[edge] = segment
            self._last_segment = segment
            return self._replay(segment)

        # Live run on the heap loop, recorded from what it leaves
        # behind.  A raising segment (budget exhaustion, an unknown stop
        # net) is never cached: the exception propagates before the
        # cache write, so every revisit runs it fresh and raises at the
        # same point.
        trace = self.trace
        mark = len(trace)
        events_before = self._events_processed
        result = self._heap_run(until, None, stop_net, stop_value)
        segments[key] = segment = _Segment(
            events=self._events_processed - events_before,
            end_dt=result - now,
            exit_values=list(values),
            exit_counts=list(self._counts),
            trace=tuple(
                (change.time - now, change.net, change.value)
                for change in trace[mark:]
            ),
            queue=self._queue_signature(now),
        )
        if edge is not None:
            last.next[edge] = segment
        self._last_segment = segment
        return result

    def _segment_cache(self) -> dict:
        cache = self._segments
        if cache is None:
            root_key = (
                "ring-segments",
                self._plan_key,
                self.inertial,
                frozenset(
                    nid
                    for nid, flag in enumerate(self._watched_flags)
                    if flag
                ),
            )
            cache = plan_cache_get(self._prog.plan_cache, root_key)
            if cache is None:
                cache = {}
                plan_cache_put(self._prog.plan_cache, root_key, cache)
            self._segments = cache
        return cache

    def _replay(self, segment: _Segment) -> float:
        now = self.now
        stats = self.kernel_stats
        stats["replays"] += 1
        stats["replayed_events"] += segment.events
        # Slice-assign so the list identities survive (the heap loop's
        # closure and values_reader closures hold these very lists).
        self._values[:] = segment.exit_values
        self._counts[:] = segment.exit_counts
        if segment.trace:
            self.trace.extend([
                NetChange(now + dt, net, value)
                for dt, net, value in segment.trace
            ])
        # The replayed-from state had exactly the keyed queue; discard
        # it.  An unmaterialised stub never wrote its pending entries,
        # and external pushes are untracked, so only tracked heap
        # entries need their pending marks cleared.
        self._queue_stub = None
        queue = self._queue
        if queue:
            pending = self._pending
            for _, seq, nid, _ in queue:
                if pending[nid] == seq:
                    pending[nid] = 0
            queue.clear()
        # The recorded end queue replaces it — lazily.  In steady chained
        # replay the successor's replay discards it unread, so the
        # per-event rebuild (pending writes, heap entries) is deferred to
        # :meth:`_materialise_queue` and usually never runs.
        if segment.queue:
            self._queue_stub = (segment, now, self._sequence)
            self._sequence += len(segment.queue)
        self._events_processed += segment.events
        self.now = now + segment.end_dt
        return self.now
