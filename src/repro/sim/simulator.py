"""Event-driven gate-level simulation with transport delays.

The simulator executes a :class:`~repro.netlist.netlist.Netlist` under a
:class:`~repro.sim.delays.DelayModel`:

* combinational gates re-evaluate whenever an input net changes and
  schedule their (possibly glitchy) output after the gate's delay —
  **transport** semantics, so every hazard pulse the logic can produce is
  visible to the monitors;
* positive edge-triggered flip-flops sample ``D`` at the instant their
  clock net goes 0 to 1 and drive ``Q`` after their clock-to-Q delay;
* combinational feedback loops (the ``G`` latch, the state feedback) are
  handled naturally — every gate has strictly positive delay, so loops
  iterate through time instead of diverging.

An event budget guards against genuinely unstable logic (an oscillating
feedback loop raises :class:`~repro.errors.SimulationError` rather than
hanging).

Execution model
---------------
The kernel runs the netlist's **compiled program**
(:meth:`Netlist.compile() <repro.netlist.netlist.Netlist.compile>`):
net values live in a flat list indexed by integer net id, heap events
are ``(time, sequence, net_id, value)`` int tuples, gate evaluation is
one bit-index into a precomputed truth-table int (the ones-count among
a gate's inputs is maintained incrementally per fanout edge), and every
per-instance delay is resolved through the
:class:`~repro.sim.delays.DelayModel` before the first event — no
per-event dict lookups, string hashing, or virtual delay calls.
Set-up is memoised on the compiled program (a bounded LRU beside its
plan cache): the initial ones-counts once per initial state, and a
model object's resolved vector, fanout plans and time quantum once per
model, so the walks of one machine under one model, on either engine,
resolve it once.  The
original object-graph interpreter is retained as
:class:`repro.sim._reference.ReferenceSimulator` and pinned
trace-equivalent by the Hypothesis suite in ``tests/sim/``; event
ordering (including heap tie-breaks via sequence numbers) is reproduced
bit-for-bit, so both kernels emit identical :class:`NetChange` streams.

Two deliberate facade differences from the retained reference: net
values are normalised to 0/1 (the reference would carry any truthy
object through), and :meth:`Simulator.schedule` rejects unknown nets
(the reference silently accepted them).  ``Simulator.values`` is a
snapshot property, not the live store.

Cycle replay
------------
A FANTOM hand-shake cycle
(:meth:`~repro.sim.harness.FantomHarness.apply`) starts and ends with
the kernel drained: nothing queued and ``now`` on the time grid.  There
the net values alone fix every later event, so the whole cycle is a
pure function of (values, column), and an 800-step Monte-Carlo walk
visits only a few dozen such pairs.  :meth:`Simulator.cycle_key`,
:meth:`~Simulator.cycle_capture`, :meth:`~Simulator.cycle_admits` and
:meth:`~Simulator.cycle_restore` let the harness memoise whole cycles
and land runs of replays on the kernel without writing a kernel field
(the memo and its chaining live in
:class:`~repro.sim.harness.FantomHarness`).  Replayed cycles count in
``cycle_replays`` and their events in ``replayed_events`` and in
``events_processed``, which so agrees with a replay-off run.  The
``ring`` engine is this kernel; ``compiled`` is it with
``replay=False``, and the fuzz loop's ``trace`` leg compares the two.

Exactness comes from the resolved delay vector's time quantum
(:func:`~repro.sim.delays.negotiate_time_quantum`): when every delay is
a multiple of ``2**-k`` (``k <= TICK_SHIFT_LIMIT``), so is every event
time, and below the horizon ``2**(53 - k)`` float sums and differences
of event times are exact, so a cycle restored at another start time is
bit-for-bit the live cycle it stands for.  The built-in random sweep
models draw on the :data:`~repro.sim.delays.TIME_GRID_BITS` grid
precisely so their campaign cells keep replay on.  The ``path`` in
:attr:`Simulator.kernel_stats` names the regime:

* ``ring`` — integral delays (``k = 0``), replay on;
* ``ticks`` — dyadic delays (``k > 0``), replay on;
* ``heap`` — replay off: the plain heap loop, for arbitrary stimuli.

``replay=False``, or a vector with no practical quantum (off-grid
delays, a :class:`~repro.sim.delays.RandomDelay` with
``grid_bits=None``), starts on ``heap``.  An off-grid external
``schedule()`` (``off-grid-stimulus``) or event times approaching the
horizon (``overflow``) leave the grid for good, counted in
``kernel_stats["migrations"]`` and surfaced through
:class:`~repro.sim.monitors.ValidationSummary` and ``seance validate
--json``, so a silent fast-path loss is visible.  Live events run on
the one heap loop whatever the path.
"""

from __future__ import annotations

import heapq
from functools import partial
from operator import itemgetter
from typing import NamedTuple

from ..errors import SimulationError
from ..netlist.netlist import Netlist
from .delays import (
    TICK_SHIFT_LIMIT,
    DelayModel,
    UnitDelay,
    negotiate_time_quantum,
)

#: Entries kept in a compiled program's plan cache.  Campaign sweeps
#: cycle through one plan set per (model, seed) — an LRU keeps the live
#: working set warm where the old wholesale clear-at-16 threw away every
#: cell's plans mid-sweep.
PLAN_CACHE_LIMIT = 64

_INF = float("inf")


def schedule_time_error(net: str, at: float, now: float) -> SimulationError:
    """Why an external schedule of ``net`` at ``at`` is refused.

    Every kernel accepts only ``now <= at < inf``: a NaN or infinite
    time would become the clock and disable the "before now" guard.
    """
    if at < now:
        return SimulationError(
            f"cannot schedule {net} at {at} before now ({now})"
        )
    return SimulationError(f"cannot schedule {net} at non-finite time {at}")


def run_time_error(until: float, now: float) -> SimulationError:
    """Why a run horizon ``until`` is refused.

    Every kernel only runs forward, to ``until >= now``: an earlier
    horizon would move the clock backwards (reopening time that has
    passed to ``schedule()``), and a NaN would run unbounded.
    """
    if until != until:
        return SimulationError("cannot run until NaN")
    return SimulationError(f"cannot run until {until}, before now ({now})")


def plan_cache_get(cache: dict, key):
    """LRU lookup: a hit is refreshed to most-recently-used."""
    entry = cache.pop(key, None)
    if entry is not None:
        cache[key] = entry
    return entry


def plan_cache_put(cache: dict, key, entry) -> None:
    """LRU insert, evicting the stalest entries beyond the cap."""
    cache.pop(key, None)
    while len(cache) >= PLAN_CACHE_LIMIT:
        del cache[next(iter(cache))]
    cache[key] = entry


class NetChange(NamedTuple):
    """One recorded transition on a net.

    An immutable tuple record (fields by name, ``==``, ``repr`` and
    pickling field-wise): the kernels append one per watched transition
    on their hot loop, where a tuple is the cheapest record to build.
    """

    time: float
    net: str
    value: int


class Simulator:
    """Event-driven simulation of one netlist instance.

    With ``replay`` on (the default) and the delays on a time grid, the
    cycle methods replay whole drained-to-drained hand-shake cycles
    (see the module docs); anything off the grid just turns replay off.
    ``replay=False`` runs every event live on the same heap loop.
    """

    def __init__(
        self,
        netlist: Netlist,
        delays: DelayModel | None = None,
        initial_values: dict[str, int] | None = None,
        max_events: int = 200_000,
        inertial: bool = True,
        *,
        replay: bool = True,
    ):
        self.netlist = netlist
        self.delays = delays or UnitDelay()
        self.max_events = max_events
        self.inertial = inertial
        self.now = 0.0
        self._queue: list[tuple[float, int, int, int]] = []
        self._sequence = 0
        self._events_processed = 0
        self.trace: list[NetChange] = []

        prog = netlist.compile()
        self._prog = prog
        self._ids = prog.net_ids
        num_nets = prog.num_nets

        #: live sequence number per net id (0 = none pending).
        self._pending = [0] * num_nets
        self._watched_flags = [False] * num_nets

        self._values = values = [0] * num_nets
        #: initial values for nets the netlist does not know (kept so
        #: ``value()`` answers for them, as the reference kernel did).
        self._extra: dict[str, int] = {}
        if initial_values:
            ids = self._ids
            for net, value in initial_values.items():
                nid = ids.get(net)
                if nid is None:
                    self._extra[net] = value
                else:
                    values[nid] = 1 if value else 0

        # Set-up memoised on the compiled program (bounded LRUs, like
        # the plan cache): every walk of one machine starts from one
        # initial state, and the walks of one delay model on both
        # engines resolve one vector.
        setup = prog.setup_cache
        #: per-gate count of inputs currently 1 (the truth-table index),
        #: a function of the program and the initial values.
        counts_key = ("counts", bytes(values))
        counts = plan_cache_get(setup, counts_key)
        if counts is None:
            counts = tuple(
                sum(values[nid] for nid in inputs)
                for inputs in prog.gate_inputs
            )
            plan_cache_put(setup, counts_key, counts)
        self._counts = list(counts)

        # Delay models assign a *fixed* delay per instance (their stated
        # contract), so a model object is resolved once per program and
        # its vector, plans and time quantum are shared by every
        # simulator built on it.  The entry holds the model itself (so
        # its id cannot pass to another object while the entry lives)
        # and serves only that object (a copied program's keys name
        # objects of another process).
        model = self.delays
        model_key = ("model", id(model))
        entry = plan_cache_get(setup, model_key)
        if entry is None or entry[0] is not model:
            entry = (model, *self._resolve(model))
            plan_cache_put(setup, model_key, entry)
        (
            _, self._gate_delays, self._dff_delays,
            self._plans, self._dff_plans, shift, max_delay,
        ) = entry
        if not replay:
            shift = None

        #: ``bytes(values)`` of the current drained state, once built;
        #: ``None`` after any ``run`` or ``schedule``.
        self._key: bytes | None = None
        #: Kernel telemetry: current engine path, the negotiated tick
        #: shift, cycle-replay counts, and any path migrations
        #: (reason -> count).  Deterministic for a deterministic workload.
        self.kernel_stats = {
            "path": "heap",
            "shift": 0 if shift is None else shift,
            "cycle_replays": 0,
            "replayed_events": 0,
            "migrations": {},
        }
        #: Whether cycle replay is on (the path is not ``heap``).
        self._replay = shift is not None
        if self._replay:
            self.kernel_stats["path"] = "ring" if shift == 0 else "ticks"
            #: grid scale: ``at * _up`` is integral exactly on the grid.
            self._up = float(1 << shift)
            # Exactness horizon, in ticks: every tick must stay below
            # 2**53 for the relative-time arithmetic to be exact.  The
            # guard is conservative — one run can extend the queue by at
            # most the remaining event budget times the largest delay,
            # so checking at run/schedule entry suffices.
            self._tick_safe = float(
                2**53 - (max_events + 2) * (max_delay + 1)
            )
        #: The generated event loop (see :meth:`_make_runner`): one
        #: frame, zero rebinding, per harness wait.
        self.run = self._make_runner()

    def _resolve(self, model: DelayModel) -> tuple:
        """One delay model's resolution over this netlist's instances.

        Returns ``(gate delays, dff delays, fanout plans, dff plans, tick
        shift, largest delay in ticks)``; the shift is ``None`` when the
        vector has no practical time quantum (replay stays off).
        """
        prog = self._prog
        gate_delays = [model.gate_delay(gate) for gate in self.netlist.gates]
        dff_delays = [model.clk_to_q(dff) for dff in self.netlist.dffs]
        # Per-net fanout plans, fusing everything one event touches into
        # one tuple walk: (gate, output id, delay, truth table) per
        # reading gate.  For duplicate-free nets (the normal case) the
        # count update and the evaluation run in a single pass — a gate
        # sees its count fully updated because this net moves it exactly
        # once.  A net feeding one gate twice, or clocking a flip-flop,
        # keeps ``None`` here and takes the generic path, which also
        # samples the flip-flops it clocks.  Plans depend only on the
        # program and the resolved delays, so they are memoised on the
        # compiled program — every unit-delay (or same-seed) cell of a
        # campaign shares them.
        plan_key = (tuple(gate_delays), tuple(dff_delays))
        plans = plan_cache_get(prog.plan_cache, plan_key)
        if plans is None:
            out, tt = prog.gate_output, prog.gate_tt
            gate_step = [
                (g, out[g], delay, tt[g])
                for g, delay in enumerate(gate_delays)
            ].__getitem__
            # A net reads each gate once exactly when its aggregated
            # (gate, multiplicity) plan is as long as its reader list.
            fanout = [
                tuple(map(gate_step, readers))
                if len(readers) == len(counted) and not fans else None
                for readers, counted, fans in zip(
                    prog.fan_gates, prog.fan_counts, prog.fan_dffs
                )
            ]
            d, q = prog.dff_d, prog.dff_q
            dff_step = [
                (d[f], q[f], delay) for f, delay in enumerate(dff_delays)
            ].__getitem__
            dff_fanout = [
                tuple(map(dff_step, fans)) if fans else ()
                for fans in prog.fan_dffs
            ]
            plans = (fanout, dff_fanout)
            plan_cache_put(prog.plan_cache, plan_key, plans)
        resolved = [*gate_delays, *dff_delays]
        shift = negotiate_time_quantum(resolved, limit=TICK_SHIFT_LIMIT)
        max_delay = 1
        if shift is not None and resolved:
            # Scaling by a power of two is exact, so the largest delay
            # scales to the largest tick count.
            max_delay = int(max(resolved) * float(1 << shift))
        return gate_delays, dff_delays, *plans, shift, max_delay

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    @property
    def compiled(self):
        """The :class:`~repro.netlist.compiled.CompiledNetlist` program."""
        return self._prog

    @property
    def values(self) -> dict[str, int]:
        """Snapshot of every net's current value (name -> 0/1)."""
        snapshot = dict(zip(self._prog.net_names, self._values))
        snapshot.update(self._extra)
        return snapshot

    def watch(self, *nets: str) -> None:
        """Record every transition of the given nets into the trace."""
        ids = self._ids
        for net in nets:
            nid = ids.get(net)
            if nid is not None:
                self._watched_flags[nid] = True

    def schedule(self, net: str, value: int, at: float) -> None:
        """Schedule an externally driven net change (primary inputs).

        External schedules are never cancelled by inertial semantics —
        the environment's waveform is what it is.  A time off the grid
        or beyond the exactness horizon turns cycle replay off for good.
        """
        if not self.now <= at < _INF:
            raise schedule_time_error(net, at, self.now)
        nid = self._ids.get(net)
        if nid is None:
            raise SimulationError(f"unknown net {net!r}")
        if self._replay:
            self._key = None
            scaled = at * self._up
            if scaled >= self._tick_safe:
                self._migrate_to_heap("overflow")
            elif not scaled.is_integer():
                self._migrate_to_heap("off-grid-stimulus")
        self._sequence = seq = self._sequence + 1
        heapq.heappush(self._queue, (at, seq, nid, 1 if value else 0))

    def _migrate_to_heap(self, reason: str) -> None:
        """Turn cycle replay off: the plain heap loop from here on."""
        self._replay = False
        self._key = None
        stats = self.kernel_stats
        stats["path"] = "heap"
        migrations = stats["migrations"]
        migrations[reason] = migrations.get(reason, 0) + 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _make_runner(self):
        """Build this instance's event loop, bound as ``self.run``.

        ``run(until=None, stop_when=None, stop_net=None, stop_value=1)``
        processes events up to ``until`` (or until the queue drains) and
        returns the simulation time reached.  ``stop_when(sim)`` is
        evaluated after each processed event; when it returns True
        execution pauses (the queue keeps its remaining events).
        ``stop_net``/``stop_value`` is the same pause as
        ``stop_when=lambda sim: sim.value(stop_net) == stop_value`` but
        checked inline — the 4-phase harness waits on a net level after
        nearly every hand-shake edge, and a Python callback per event
        would tax the kernel's whole margin.

        Every loop invariant — the compiled program's arrays, this
        simulator's state lists, the heap primitives — is bound as a
        default argument, so a ``run()`` call has no per-call rebinding
        cost (the 4-phase harness calls ``run`` several times per
        hand-shake cycle) and every per-event access is a C-speed local.
        """
        sim = self
        heappush = heapq.heappush
        heappop = heapq.heappop

        def run_events(
            until=None,
            stop_when=None,
            stop_net=None,
            stop_value=1,
            ids=self._ids,
            queue=self._queue,
            values=self._values,
            pending=self._pending,
            counts=self._counts,
            watched=self._watched_flags,
            trace=self.trace,
            plans=self._plans,
            dff_plans=self._dff_plans,
            fan_gates=self._prog.fan_gates,
            fan_counts=self._prog.fan_counts,
            gate_output=self._prog.gate_output,
            tt=self._prog.gate_tt,
            net_names=self._prog.net_names,
            gate_delays=self._gate_delays,
            inertial=self.inertial,
            max_events=self.max_events,
            inf=float("inf"),
            # ``NetChange`` built straight from its field tuple, skipping
            # the generated ``__new__`` frame.
            change=partial(tuple.__new__, NetChange),
        ):
            if sim._replay:
                sim._key = None
                if sim.now * sim._up >= sim._tick_safe:
                    # The run could push event times past the
                    # exactness horizon: turn replay off.
                    sim._migrate_to_heap("overflow")
            if until is None:
                deadline = inf
            elif until >= sim.now:
                deadline = until
            else:
                raise run_time_error(until, sim.now)
            stop_nid = -1
            if stop_net is not None:
                stop_nid = ids.get(stop_net, -1)
                if stop_nid < 0:
                    raise SimulationError(f"unknown net {stop_net!r}")
                if values[stop_nid] == stop_value:
                    return sim.now
            events = sim._events_processed
            seq = sim._sequence
            now = sim.now
            try:
                while queue:
                    at, eseq, nid, value = heappop(queue)
                    if at > deadline:
                        # Past the horizon: put it back (the heap pop
                        # order is a total order on (time, seq), so a
                        # re-push changes nothing observable).
                        heappush(queue, (at, eseq, nid, value))
                        now = until
                        return now
                    events += 1
                    if events > max_events:
                        raise SimulationError(
                            f"event budget exceeded ({max_events}); "
                            f"oscillating feedback loop in "
                            f"{sim.netlist.name!r}?"
                        )
                    now = at
                    live = pending[nid]
                    if live == eseq:
                        pending[nid] = 0  # the in-flight event landed
                    elif live and inertial:
                        continue  # superseded by a re-evaluation
                    if values[nid] == value:
                        continue
                    values[nid] = value
                    if watched[nid]:
                        trace.append(change((at, net_names[nid], value)))
                    # Push-time no-op filtering: a re-evaluation that
                    # confirms the target net's current value, with no
                    # in-flight event to supersede (pending == 0), would
                    # pop straight into the equal-value skip — don't
                    # schedule it at all.  More than half of a FANTOM
                    # machine's events are such confirmations.  Traces,
                    # values and timing are unchanged (surviving events
                    # keep their relative sequence order); only the
                    # processed-event count differs from the reference.
                    plan = plans[nid]
                    if plan is None:
                        # A net feeding some gate more than once, or
                        # clocking a flip-flop: update every count fully,
                        # then evaluate (the fused single pass would see
                        # half-updated counts), then sample.
                        if value:
                            for g, mult in fan_counts[nid]:
                                counts[g] += mult
                        else:
                            for g, mult in fan_counts[nid]:
                                counts[g] -= mult
                        for g in fan_gates[nid]:
                            out_nid = gate_output[g]
                            out = tt[g] >> counts[g] & 1
                            if pending[out_nid] or out != values[out_nid]:
                                seq += 1
                                pending[out_nid] = seq
                                heappush(
                                    queue,
                                    (at + gate_delays[g], seq, out_nid, out),
                                )
                        if value == 1:
                            # rising clock edges sample D now, drive Q
                            # later
                            for d_nid, q_nid, delay in dff_plans[nid]:
                                sampled = values[d_nid]
                                if pending[q_nid] or sampled != values[q_nid]:
                                    seq += 1
                                    pending[q_nid] = seq
                                    heappush(
                                        queue,
                                        (at + delay, seq, q_nid, sampled),
                                    )
                    elif value:
                        for g, out_nid, delay, table in plan:
                            ones = counts[g] + 1
                            counts[g] = ones
                            out = table >> ones & 1
                            if pending[out_nid] or out != values[out_nid]:
                                seq += 1
                                pending[out_nid] = seq
                                heappush(
                                    queue, (at + delay, seq, out_nid, out)
                                )
                    else:
                        for g, out_nid, delay, table in plan:
                            ones = counts[g] - 1
                            counts[g] = ones
                            out = table >> ones & 1
                            if pending[out_nid] or out != values[out_nid]:
                                seq += 1
                                pending[out_nid] = seq
                                heappush(
                                    queue, (at + delay, seq, out_nid, out)
                                )
                    # The stop net was off ``stop_value`` on entry, so
                    # only its own event can bring it there.
                    if nid == stop_nid and value == stop_value:
                        return now
                    if stop_when is not None:
                        # Sync state out (and the sequence back in) so a
                        # callback may inspect or even schedule safely.
                        sim.now = now
                        sim._sequence = seq
                        sim._events_processed = events
                        stop = stop_when(sim)
                        seq = sim._sequence
                        if stop:
                            return now
                if until is not None and until > now:
                    now = until
                return now
            finally:
                sim.now = now
                sim._events_processed = events
                sim._sequence = seq

        return run_events

    def run_until_quiet(self, timeout: float) -> float:
        """Run until no live events remain or ``timeout`` elapses.

        Raises when live events are still pending at the deadline — the
        caller expected stability and did not get it.
        """
        deadline = self.now + timeout
        if not timeout >= 0:
            raise run_time_error(deadline, self.now)
        queue = self._queue
        if not queue:  # already quiet: just advance time
            self.now = deadline
            return deadline
        reached = self.run(deadline)
        # A drained queue holds no live event (the common case: the run
        # only stops early at its deadline).
        if queue and self.has_live_events():
            raise SimulationError(
                f"netlist {self.netlist.name!r} did not quiesce within "
                f"{timeout} time units"
            )
        return reached

    def has_live_events(self) -> bool:
        """True when the queue holds any non-superseded event."""
        if not self.inertial:
            return bool(self._queue)
        pending = self._pending
        for _, seq, nid, _ in self._queue:
            live = pending[nid]
            if not live or live == seq:
                return True
        return False

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def value(self, net: str) -> int:
        nid = self._ids.get(net)
        if nid is not None:
            return self._values[nid]
        try:
            return self._extra[net]
        except KeyError:
            raise SimulationError(f"unknown net {net!r}") from None

    def values_reader(self, nets):
        """A zero-argument callable snapshotting ``nets`` (in order).

        The harness reads the state and output banks once per hand-shake
        cycle; resolving the names to ids once beats a ``value()`` call
        per net per cycle.  Both kernels provide this.
        """
        ids = []
        for net in nets:
            nid = self._ids.get(net)
            if nid is None:
                raise SimulationError(f"unknown net {net!r}")
            ids.append(nid)
        values = self._values
        if not ids:
            return tuple
        if len(ids) == 1:
            # ``itemgetter`` of one index returns the bare item.
            (nid,) = ids
            return lambda: (values[nid],)
        return partial(itemgetter(*ids), values)

    def net_reader(self, net: str):
        """A zero-argument reader of one net's current value.

        The single-net analogue of :meth:`values_reader`: the harness
        polls ``VOM`` and the external pins every hand-shake phase, so
        resolving the name once removes a dict lookup from each of the
        campaign's hottest shared reads.  Both kernels provide this.
        """
        nid = self._ids.get(net)
        if nid is not None:
            values = self._values
            return lambda: values[nid]
        if net in self._extra:
            extra = self._extra
            return lambda: extra[net]
        raise SimulationError(f"unknown net {net!r}")

    def pending_events(self) -> int:
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def trace_of(self, net: str) -> list[NetChange]:
        return [change for change in self.trace if change.net == net]

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
        if key is None and self._replay:
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
        Returns ``(exit key, clock advance, event count, counts)``: the
        first three let a caller chain replays without the kernel, and
        the exit key is the exit values.  ``None`` when the cycle did
        not end drained on the grid (it left events queued, or replay
        was turned off on the way).
        """
        key = self.cycle_key()
        if key is None:
            return None
        return (
            key, self.now - start, self._events_processed - events,
            list(self._counts),
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
        key, _, _, counts = capture
        # Slice-assign so the list identities survive (the event loop's
        # defaults and the value readers hold these very lists); the
        # key is ``bytes(values)``.
        self._values[:] = key
        self._counts[:] = counts
        self._key = key
        stats = self.kernel_stats
        stats["cycle_replays"] += replays
        stats["replayed_events"] += processed - self._events_processed
        self._events_processed = processed
        self.now = now
        return replays
