"""The event-ring simulation kernel: a bucket ring over tick time.

:class:`RingSimulator` is the third event kernel (after the seed
interpreter in :mod:`repro.sim._reference` and the compiled heap kernel
in :mod:`repro.sim.simulator`), selectable as ``--engine ring``.  It is
pinned trace-equivalent to both: identical
:class:`~repro.sim.simulator.NetChange` streams, values and simulation
times on every netlist and delay model.  Its live loop makes the same
pushes as the compiled kernel's, so ``events_processed`` agrees with
the compiled kernel too (the seed interpreter's differs, as the
compiled kernel's push-time filtering already does).

Where the compiled kernel replaced *interpretation* costs (string keys,
virtual calls) with a flat integer program, the ring kernel replaces the
*event queue* itself for the delay regimes that allow it, with two
mechanisms:

* **bucket-ring queue over negotiated ticks** — the resolved delay
  vector is put to :func:`~repro.sim.delays.negotiate_time_quantum`:
  every finite float is a dyadic rational, so when the vector's largest
  denominator is practical (``2**k``, ``k <= TICK_SHIFT_LIMIT``) every
  event time is an integer number of ``2**-k`` ticks and the heap
  becomes a sorted ring of tick buckets — scheduling is an append,
  popping is a batch take, and heap tie-break order is exactly bucket
  append order.  Scaling by a power of two is exact both ways, and all
  float time arithmetic on the grid is exact below the horizon
  ``2**(53 - k)``, so the tick kernel is bit-for-bit trace-equivalent
  to the float kernels — the built-in random sweep models
  (``loop-safe``/``skewed``/``hostile``/``corner``) draw on the
  :data:`~repro.sim.delays.TIME_GRID_BITS` grid precisely so their
  campaign cells ride this path (``path: ticks``; the all-integer case
  is ``path: ring``);
* **run-segment replay** — a FANTOM hand-shake revisits a small set of
  ``(net values, queued events, wait)`` situations over and over (the
  walk graph has few distinct edges).  In integer-time mode every
  ``run()`` call is a pure function of that situation, so completed
  segments are memoised on the compiled program (shared by every
  campaign cell over the same machine and delay vector) and replayed:
  values, counts, trace, queue and the clock advance in O(changes) with
  no event processing at all.

Outside the tick regime the kernel runs the inherited compiled heap
loop (``path: heap``), so it is a drop-in for arbitrary stimuli:

* vectors with no practical quantum (hand-annotated off-grid delays, or
  a :class:`~repro.sim.delays.RandomDelay` built with
  ``grid_bits=None``) keep the heap ``run``/``schedule`` from the start;
* an off-grid external ``schedule()`` mid-session migrates the tick
  buckets into the heap (``off-grid-stimulus``);
* event times approaching the tick horizon do the same (``overflow``).

A migration preserves sequence numbers and pending entries, so the
heap's ``(time, sequence)`` order is exactly the bucket order it
replaces.  Every path transition is counted in
:attr:`RingSimulator.kernel_stats` (replays, migrations, current
path); the path and migrations are the telemetry surfaced through
:class:`~repro.sim.monitors.ValidationSummary` and
``seance validate --json`` so a silent fast-path loss is visible.
"""

from __future__ import annotations

import heapq
from bisect import insort

from ..errors import SimulationError
from .delays import TICK_SHIFT_LIMIT, negotiate_time_quantum
from .simulator import (
    NetChange,
    Simulator,
    plan_cache_get,
    plan_cache_put,
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
        #: ((dt, nid, value), ...) watched changes, in apply order.
        self.trace = trace
        #: ((dt, ((nid, value, tracked), ...)), ...) the queue left
        #: behind, grouped per bucket, dts ascending, entries pop order.
        self.queue = queue


class RingSimulator(Simulator):
    """Event-driven simulation on the bucket-ring kernel.

    Construction, driving surface and observable behaviour (traces,
    values, time and ``events_processed``) are identical to
    :class:`~repro.sim.simulator.Simulator`; only the execution strategy
    differs, and only when the resolved delays share a practical tick
    quantum: live runs take :meth:`_ring_loop`, repeated run segments
    are replayed from the segment cache.
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
        # The compiled kernel's generated closures, kept as the engine
        # for post-migration (quantum overflow) operation.
        self._heap_run = self.run
        self._heap_schedule = self.schedule
        self._running = False

        gate_delays = self._gate_delays
        dff_delays = self._dff_delays
        shift = negotiate_time_quantum(
            [*gate_delays, *dff_delays], limit=TICK_SHIFT_LIMIT
        )
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
            self._ring = False
            return

        self._ring = True
        self._shift = shift
        #: tick <-> time scaling; powers of two, so both conversions are
        #: exact for every representable value below the horizon.
        self._up = float(1 << shift)
        self._down = 1.0 / self._up
        self.kernel_stats["path"] = "ring" if shift == 0 else "ticks"

        prog = self._prog
        plan_key = (tuple(gate_delays), tuple(dff_delays))
        self._plan_key = plan_key

        ring_key = ("ring-plans", plan_key)
        cached = plan_cache_get(prog.plan_cache, ring_key)
        if cached is None:
            up = self._up
            plans_i = [
                None
                if plan is None
                else tuple(
                    (g, out_nid, int(delay * up), table)
                    for g, out_nid, delay, table in plan
                )
                for plan in self._plans
            ]
            dff_plans_i = [
                tuple((d, q, int(delay * up)) for d, q, delay in fans)
                for fans in self._dff_plans
            ]
            gate_delays_i = [int(d * up) for d in gate_delays]
            dff_delays_i = [int(d * up) for d in dff_delays]
            cached = (plans_i, dff_plans_i, gate_delays_i, dff_delays_i)
            plan_cache_put(prog.plan_cache, ring_key, cached)
        (
            self._plans_i, self._dff_plans_i, self._gate_delays_i,
            self._dff_delays_i,
        ) = cached

        # Exactness horizon: every tick must stay below 2**53 for the
        # tick<->float conversions (and the float kernels' arithmetic)
        # to be exact.  The guard is conservative — one run can extend
        # the queue by at most the remaining event budget times the
        # largest delay, so checking at run/schedule entry suffices.
        max_delay = max(self._gate_delays_i + self._dff_delays_i, default=1)
        self._tick_safe = float(
            2**53 - (max_events + 2) * (max_delay + 1)
        )

        #: sorted distinct integer event tick times (the ring index).
        self._times: list[int] = []
        #: time -> [(seq, nid, value), ...] in push (= pop tie-break) order.
        self._buckets: dict[int, list[tuple[int, int, int]]] = {}
        #: a replayed-but-unmaterialised queue: ``(segment, base_time)``.
        #: In steady chained replay each segment's end queue is replaced
        #: by its successor's before anything reads it, so :meth:`_replay`
        #: only stores this stub and :meth:`_materialise_queue` rebuilds
        #: ``_times``/``_buckets`` (and the tracked ``_pending`` entries)
        #: on first genuine access.  Invariant: when the stub is set, the
        #: containers are empty and no pending entries of its events
        #: exist yet.
        self._queue_stub: tuple[_Segment, int] | None = None
        #: external pushes made while a stub is pending, in push order as
        #: ``(time, nid, value)``; merged (after the stub's own events,
        #: matching their later sequence numbers) on materialisation.
        #: Invariant: non-empty only while ``_queue_stub`` is set.
        self._stub_extras: list[tuple[int, int, int]] = []
        self._segments: dict | None = None
        self._running = False
        #: externally scheduled events since the last anchored run
        #: (absolute int time, nid, value) — the successor-edge signature.
        self._ext_log: list[tuple[int, int, int]] = []
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

    def _materialise_queue(self) -> None:
        """Rebuild ``_times``/``_buckets`` from a pending replay stub."""
        stub = self._queue_stub
        if stub is None:
            return
        self._queue_stub = None
        segment, base = stub
        pending = self._pending
        seq = self._sequence
        times = self._times
        buckets = self._buckets
        for dt, entries in segment.queue:
            t = base + dt
            times.append(t)
            bucket = []
            for nid, value, tracked in entries:
                seq += 1
                if tracked:
                    pending[nid] = seq
                bucket.append((seq, nid, value))
            buckets[t] = bucket
        self._sequence = seq
        extras = self._stub_extras
        if extras:
            for t, nid, value in extras:
                self._bucket_push(t, nid, value, tracked=False)
            extras.clear()

    def _ring_schedule(self, net: str, value: int, at: float) -> None:
        if not self.now <= at < _INF:
            raise schedule_time_error(net, at, self.now)
        nid = self._ids.get(net)
        if nid is None:
            raise SimulationError(f"unknown net {net!r}")
        scaled = at * self._up
        if scaled >= self._tick_safe:
            # Quantum overflow: ticks would leave the exactness horizon.
            # The documented fallback — migrate into the legacy heap.
            if self._running:
                raise SimulationError(
                    "cannot schedule an event beyond the tick horizon "
                    "from a stop_when callback while the ring loop is "
                    "running"
                )
            self._migrate_to_heap("overflow")
            self._heap_schedule(net, value, at)
            return
        if not scaled.is_integer():
            # An off-grid stimulus ends tick time: migrate the buckets
            # into the heap and continue there.
            if self._running:
                raise SimulationError(
                    "cannot schedule an off-grid event from a "
                    "stop_when callback while the ring loop is running"
                )
            self._migrate_to_heap("off-grid-stimulus")
            self._heap_schedule(net, value, at)
            return
        t = int(scaled)
        v = 1 if value else 0
        self._ext_log.append((t, nid, v))
        if self._queue_stub is not None:
            # Keep the stub lazy: buffer the push, merge on materialise.
            self._stub_extras.append((t, nid, v))
        else:
            self._bucket_push(t, nid, v, tracked=False)

    def _bucket_push(
        self, t: int, nid: int, value: int, tracked: bool
    ) -> None:
        self._sequence = seq = self._sequence + 1
        if tracked:
            self._pending[nid] = seq
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = [(seq, nid, value)]
            insort(self._times, t)
        else:
            bucket.append((seq, nid, value))

    def _migrate_to_heap(self, reason: str) -> None:
        """Convert the buckets into the inherited heap, preserving order."""
        self._materialise_queue()
        queue = self._queue
        down = self._down
        for t in self._times:
            ft = t * down
            for seq, nid, value in self._buckets[t]:
                heapq.heappush(queue, (ft, seq, nid, value))
        self._times = []
        self._buckets = {}
        self._ring = False
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
    def has_live_events(self) -> bool:
        if not self._ring:
            return super().has_live_events()
        self._materialise_queue()
        pending = self._pending
        inertial = self.inertial
        for t in self._times:
            for seq, nid, _value in self._buckets[t]:
                if inertial:
                    live = pending[nid]
                    if live and live != seq:
                        continue
                return True
        return False

    def pending_events(self) -> int:
        if not self._ring:
            return super().pending_events()
        self._materialise_queue()
        return sum(len(self._buckets[t]) for t in self._times)

    def run_until_quiet(self, timeout: float) -> float:
        deadline = self.now + timeout
        if self._ring:
            # A replay stub is only stored for a non-empty end queue.
            empty = not self._times and self._queue_stub is None
        else:
            empty = not self._queue
        if empty:  # already quiet: just advance time
            self.now = deadline
            return deadline
        reached = self.run(until=deadline)
        if self.has_live_events():
            raise SimulationError(
                f"netlist {self.netlist.name!r} did not quiesce within "
                f"{timeout} time units"
            )
        return reached

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
        if not self._ring:
            return self._heap_run(until, stop_when, stop_net, stop_value)
        now = self.now
        scaled = now * self._up
        if scaled >= self._tick_safe:
            # Quantum overflow: the next run could push ticks past the
            # exactness horizon — take the documented heap fallback.
            self._migrate_to_heap("overflow")
            return self._heap_run(until, stop_when, stop_net, stop_value)
        values = self._values
        stop_nid = -1
        if stop_net is not None:
            stop_nid = self._ids.get(stop_net, -1)
            if stop_nid < 0:
                raise SimulationError(f"unknown net {stop_net!r}")
            if values[stop_nid] == stop_value:
                return self.now
        base = int(scaled)
        if stop_when is not None or base != scaled:
            # Callbacks may inspect or schedule arbitrarily, and an
            # off-grid ``now`` makes the horizon offset ambiguous
            # relative to the tick bucket times: run live, unmemoised.
            self._last_segment = None
            return self._ring_loop(
                until, stop_when, stop_nid, stop_value, None
            )

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
                tuple((t - base, nid, v) for t, nid, v in log)
                if log
                else (),
                until_dt, stop_nid, stop_value,
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
        pending = self._pending
        qsig = tuple(
            (
                t - base,
                tuple(
                    (nid, value, pending[nid] == seq)
                    for seq, nid, value in self._buckets[t]
                ),
            )
            for t in self._times
        )
        key = (tuple(values), qsig, until_dt, stop_nid, stop_value)
        segment = segments.get(key)
        if (
            segment is not None
            and self._events_processed + segment.events <= self.max_events
        ):
            if edge is not None:
                last.next[edge] = segment
            self._last_segment = segment
            return self._replay(segment)

        # Live run, recorded.  A raising segment (budget exhaustion, a
        # quiesce failure upstream) is never cached: the exception
        # propagates before the cache write, so every revisit runs it
        # fresh and raises at the same point.
        events_before = self._events_processed
        recorder = {"changed": {}, "trace": [], "queue": ()}
        result = self._ring_loop(until, None, stop_nid, stop_value, recorder)
        segments[key] = segment = _Segment(
            events=self._events_processed - events_before,
            end_dt=self.now - now,
            exit_values=list(values),
            exit_counts=list(self._counts),
            trace=tuple(recorder["trace"]),
            queue=recorder["queue"],
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
        pending = self._pending
        now = self.now
        stats = self.kernel_stats
        stats["replays"] += 1
        stats["replayed_events"] += segment.events
        # Slice-assign so the list identities survive (values_reader
        # closures and the base class hold references to these lists).
        self._values[:] = segment.exit_values
        self._counts[:] = segment.exit_counts
        if segment.trace:
            names = self._prog.net_names
            trace = self.trace
            down = self._down
            for dt, nid, value in segment.trace:
                trace.append(NetChange(now + dt * down, names[nid], value))
        # The replayed-from state had exactly the keyed queue; discard it.
        # An unmaterialised stub never wrote its pending entries, so only
        # a materialised queue needs them cleared (buffered external
        # pushes were untracked and die with the stub).
        if self._queue_stub is not None:
            self._queue_stub = None
            if self._stub_extras:
                self._stub_extras.clear()
        elif self._times:
            for t in self._times:
                for seq, nid, _value in self._buckets[t]:
                    if pending[nid] == seq:
                        pending[nid] = 0
            self._times = []
            self._buckets = {}
        # The recorded end queue replaces it — lazily.  In steady chained
        # replay the successor's replay discards it unread, so the
        # per-event rebuild (fresh sequence numbers, pending writes) is
        # deferred to :meth:`_materialise_queue` and usually never runs.
        if segment.queue:
            self._queue_stub = (segment, int(now * self._up))
        self._events_processed += segment.events
        self.now = now + segment.end_dt
        return self.now

    # ------------------------------------------------------------------
    def _ring_loop(
        self, until, stop_when, stop_nid, stop_value, recorder
    ) -> float:
        """The live bucket loop: the ring's one per-event loop.

        Pops each tick bucket in append order and applies its events
        exactly as the compiled kernel's heap loop does (same
        supersession, same push-time filtering), so the two kernels push
        and process the same events.  Records the segment into
        ``recorder`` when given.
        """
        self._materialise_queue()
        times = self._times
        buckets = self._buckets
        values = self._values
        pending = self._pending
        counts = self._counts
        watched = self._watched_flags
        trace = self.trace
        plans = self._plans_i
        dff_plans = self._dff_plans_i
        fan_counts = self._prog.fan_counts
        fan_gates = self._prog.fan_gates
        gate_output = self._prog.gate_output
        tts = self._prog.gate_tt
        gate_delays = self._gate_delays_i
        net_names = self._prog.net_names
        inertial = self.inertial
        max_events = self.max_events
        up = self._up
        down = self._down
        deadline = _INF if until is None else until * up
        events = self._events_processed
        now = self.now
        start = now
        rec_base = 0
        if recorder is not None:
            rec_changed = recorder["changed"]
            rec_trace = recorder["trace"]
            rec_base = int(start * up)
        else:
            rec_changed = rec_trace = None
        self._running = True
        try:
            while times:
                t = times[0]
                if t > deadline:
                    now = until
                    return now
                batch = buckets[t]
                ft = t * down
                index = 0
                stop_here = False
                # Index loop: a stop_when callback may schedule into the
                # current instant, growing this bucket (heap order puts
                # such events after the existing ones, as append does).
                while index < len(batch):
                    eseq, nid, value = batch[index]
                    index += 1
                    events += 1
                    if events > max_events:
                        now = ft
                        rest = batch[index:]
                        if rest:
                            buckets[t] = rest
                        else:
                            del buckets[t]
                            times.pop(0)
                        raise SimulationError(
                            f"event budget exceeded ({max_events}); "
                            f"oscillating feedback loop in "
                            f"{self.netlist.name!r}?"
                        )
                    now = ft
                    live = pending[nid]
                    if live:
                        if inertial and live != eseq:
                            continue  # superseded by a re-evaluation
                        if live == eseq:
                            pending[nid] = 0
                    if values[nid] == value:
                        continue
                    values[nid] = value
                    if rec_changed is not None:
                        rec_changed[nid] = value
                    if watched[nid]:
                        trace.append(NetChange(ft, net_names[nid], value))
                        if rec_trace is not None:
                            rec_trace.append((t - rec_base, nid, value))
                    plan = plans[nid]
                    if plan is None:
                        if value:
                            for g, mult in fan_counts[nid]:
                                counts[g] += mult
                        else:
                            for g, mult in fan_counts[nid]:
                                counts[g] -= mult
                        for g in fan_gates[nid]:
                            out_nid = gate_output[g]
                            out = tts[g] >> counts[g] & 1
                            if pending[out_nid] or out != values[out_nid]:
                                self._bucket_push(
                                    t + gate_delays[g], out_nid, out, True
                                )
                    elif value:
                        for g, out_nid, delay, table in plan:
                            ones = counts[g] + 1
                            counts[g] = ones
                            out = table >> ones & 1
                            if pending[out_nid] or out != values[out_nid]:
                                self._bucket_push(
                                    t + delay, out_nid, out, True
                                )
                    else:
                        for g, out_nid, delay, table in plan:
                            ones = counts[g] - 1
                            counts[g] = ones
                            out = table >> ones & 1
                            if pending[out_nid] or out != values[out_nid]:
                                self._bucket_push(
                                    t + delay, out_nid, out, True
                                )
                    if value == 1:
                        for d_nid, q_nid, delay in dff_plans[nid]:
                            sampled = values[d_nid]
                            if pending[q_nid] or sampled != values[q_nid]:
                                self._bucket_push(
                                    t + delay, q_nid, sampled, True
                                )
                    if stop_nid >= 0 and values[stop_nid] == stop_value:
                        stop_here = True
                        break
                    if stop_when is not None:
                        self.now = now
                        self._events_processed = events
                        if stop_when(self):
                            stop_here = True
                            break
                rest = batch[index:]
                if rest:
                    buckets[t] = rest
                else:
                    del buckets[t]
                    times.pop(0)
                if stop_here:
                    return now
            if until is not None and until > now:
                now = until
            return now
        finally:
            self._running = False
            self.now = now
            self._events_processed = events
            if recorder is not None:
                recorder["queue"] = tuple(
                    (
                        t - rec_base,
                        tuple(
                            (nid, value, pending[nid] == seq)
                            for seq, nid, value in buckets[t]
                        ),
                    )
                    for t in times
                )
