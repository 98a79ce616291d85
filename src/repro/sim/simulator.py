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
:class:`~repro.sim.delays.DelayModel` exactly once at construction — no
per-event dict lookups, string hashing, or virtual delay calls.  The
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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..errors import SimulationError
from ..netlist.netlist import Netlist
from .delays import DelayModel, UnitDelay

#: Entries kept in a compiled program's plan cache.  Campaign sweeps
#: cycle through one plan set per (model, seed) — an LRU keeps the live
#: working set warm where the old wholesale clear-at-16 threw away every
#: cell's plans (and the ring kernel's segment memos) mid-sweep.
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


@dataclass(frozen=True)
class NetChange:
    """One recorded transition on a net."""

    time: float
    net: str
    value: int


class Simulator:
    """Event-driven simulation of one netlist instance."""

    def __init__(
        self,
        netlist: Netlist,
        delays: DelayModel | None = None,
        initial_values: dict[str, int] | None = None,
        max_events: int = 200_000,
        inertial: bool = True,
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
        self._watched: set[str] = set()

        self._values = [0] * num_nets
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
                    self._values[nid] = 1 if value else 0

        #: per-gate count of inputs currently 1 (the truth-table index).
        values = self._values
        self._counts = [
            sum(values[nid] for nid in inputs) for inputs in prog.gate_inputs
        ]

        # Delay models assign a *fixed* delay per instance (their stated
        # contract), so resolve them all once here instead of per event.
        self._gate_delays = [
            self.delays.gate_delay(gate) for gate in netlist.gates
        ]
        self._dff_delays = [self.delays.clk_to_q(dff) for dff in netlist.dffs]

        # Per-net fanout plans, fusing everything one event touches into
        # one tuple walk: (gate, output id, delay, truth table) per
        # reading gate.  For duplicate-free nets (the normal case) the
        # count update and the evaluation run in a single pass — a gate
        # sees its count fully updated because this net moves it exactly
        # once.  A net feeding one gate twice keeps ``None`` here and
        # takes the generic two-phase path.  Plans depend only on the
        # program and the resolved delays, so they are memoised on the
        # compiled program — every unit-delay (or same-seed) cell of a
        # campaign shares them.
        plan_key = (tuple(self._gate_delays), tuple(self._dff_delays))
        cached = plan_cache_get(prog.plan_cache, plan_key)
        if cached is None:
            gate_delays = self._gate_delays
            plans: list[tuple | None] = []
            for readers in prog.fan_gates:
                if len(set(readers)) != len(readers):
                    plans.append(None)
                else:
                    plans.append(
                        tuple(
                            (
                                g,
                                prog.gate_output[g],
                                gate_delays[g],
                                prog.gate_tt[g],
                            )
                            for g in readers
                        )
                    )
            dff_delays = self._dff_delays
            dff_plans = [
                tuple(
                    (prog.dff_d[f], prog.dff_q[f], dff_delays[f])
                    for f in fans
                )
                for fans in prog.fan_dffs
            ]
            cached = (plans, dff_plans)
            plan_cache_put(prog.plan_cache, plan_key, cached)
        self._plans, self._dff_plans = cached
        #: Engine-path provenance; the ring kernel replaces this with its
        #: full telemetry dict.  The compiled kernel *is* the heap path.
        self.kernel_stats = {"path": "heap", "migrations": {}}
        self._run_events = self._make_runner()
        # Shadow the class methods with generated closures: one frame,
        # zero rebinding, per harness wait / input-pin edge.
        self.run = self._run_events
        self.schedule = self._make_scheduler()

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
        self._watched.update(nets)
        ids = self._ids
        for net in nets:
            nid = ids.get(net)
            if nid is not None:
                self._watched_flags[nid] = True

    def schedule(self, net: str, value: int, at: float) -> None:
        """Schedule an externally driven net change (primary inputs).

        External schedules are never cancelled by inertial semantics —
        the environment's waveform is what it is.  (As with :meth:`run`,
        the constructor shadows this with a generated closure.)
        """
        if not self.now <= at < _INF:
            raise schedule_time_error(net, at, self.now)
        nid = self._ids.get(net)
        if nid is None:
            raise SimulationError(f"unknown net {net!r}")
        self._sequence += 1
        heapq.heappush(
            self._queue, (at, self._sequence, nid, 1 if value else 0)
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: float | None = None,
        stop_when: "callable | None" = None,
        stop_net: str | None = None,
        stop_value: int = 1,
    ) -> float:
        """Process events up to ``until`` (or until the queue drains).

        ``stop_when(sim)`` is evaluated after each processed event; when
        it returns True execution pauses (the queue keeps its remaining
        events).  ``stop_net``/``stop_value`` is the same pause as
        ``stop_when=lambda sim: sim.value(stop_net) == stop_value`` but
        checked inline — the 4-phase harness waits on a net level after
        nearly every hand-shake edge, and a Python callback per event
        would tax the compiled kernel's whole margin.  Returns the
        simulation time reached.

        (The constructor shadows this method with the instance's
        generated event loop — see :meth:`_make_runner`; this body only
        serves subclasses that bypass ``__init__``.)
        """
        return self._run_events(until, stop_when, stop_net, stop_value)

    def _make_scheduler(self):
        sim = self

        def schedule(
            net,
            value,
            at,
            ids=self._ids,
            queue=self._queue,
            heappush=heapq.heappush,
        ):
            if not sim.now <= at < _INF:
                raise schedule_time_error(net, at, sim.now)
            nid = ids.get(net)
            if nid is None:
                raise SimulationError(f"unknown net {net!r}")
            sim._sequence = seq = sim._sequence + 1
            heappush(queue, (at, seq, nid, 1 if value else 0))

        return schedule

    def _make_runner(self):
        """Build this instance's event loop.

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
        ):
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
                    event = heappop(queue)
                    at = event[0]
                    if at > deadline:
                        # Past the horizon: put it back (the heap pop
                        # order is a total order on (time, seq), so a
                        # re-push changes nothing observable).
                        heappush(queue, event)
                        now = until
                        return now
                    _, eseq, nid, value = event
                    events += 1
                    if events > max_events:
                        raise SimulationError(
                            f"event budget exceeded ({max_events}); "
                            f"oscillating feedback loop in "
                            f"{sim.netlist.name!r}?"
                        )
                    now = at
                    live = pending[nid]
                    if live:
                        if inertial and live != eseq:
                            continue  # superseded by a re-evaluation
                        if live == eseq:
                            pending[nid] = 0  # the in-flight event landed
                    if values[nid] == value:
                        continue
                    values[nid] = value
                    if watched[nid]:
                        trace.append(NetChange(at, net_names[nid], value))
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
                        # A net feeding some gate more than once: update
                        # every count fully, then evaluate (the fused
                        # single pass would see half-updated counts).
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
                    if value == 1:
                        # rising clock edges sample D now, drive Q later
                        for d_nid, q_nid, delay in dff_plans[nid]:
                            sampled = values[d_nid]
                            if pending[q_nid] or sampled != values[q_nid]:
                                seq += 1
                                pending[q_nid] = seq
                                heappush(
                                    queue, (at + delay, seq, q_nid, sampled)
                                )
                    if stop_nid >= 0 and values[stop_nid] == stop_value:
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
        if not self.pending_events():  # already quiet: just advance time
            self.now = deadline
            return deadline
        reached = self.run(until=deadline)
        if self.has_live_events():
            raise SimulationError(
                f"netlist {self.netlist.name!r} did not quiesce within "
                f"{timeout} time units"
            )
        return reached

    def has_live_events(self) -> bool:
        """True when the queue holds any non-superseded event."""
        pending = self._pending
        for _, seq, nid, _ in self._queue:
            if self.inertial:
                live = pending[nid]
                if live and live != seq:
                    continue
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
        return lambda: tuple(values[nid] for nid in ids)

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
