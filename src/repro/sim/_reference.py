"""The retained seed event kernel: the object-graph interpreter.

This is the original, dict-per-event implementation of the event-driven
simulator, kept verbatim (modulo the class name) as the pinned
behavioural reference for the compiled kernel in
:mod:`repro.sim.simulator` — the same pattern PR 3 used for the logic
engine (:mod:`repro.logic._reference`).  The Hypothesis equivalence
suite (``tests/sim/test_equivalence.py``) asserts identical
:class:`~repro.sim.simulator.NetChange` traces, values, and simulation
times between the two on random netlists and on the golden machines
(``events_processed`` intentionally differs — the compiled kernel
filters no-op re-evaluations at push time), and
``benchmarks/bench_sim.py`` measures the gap.

Semantics (shared by both kernels):

* combinational gates re-evaluate whenever an input net changes and
  schedule their (possibly glitchy) output after the gate's delay —
  **transport** semantics unless ``inertial`` filtering is on;
* positive edge-triggered flip-flops sample ``D`` at the instant their
  clock net goes 0 to 1 and drive ``Q`` after their clock-to-Q delay;
* combinational feedback loops are handled naturally — every gate has
  strictly positive delay, so loops iterate through time;
* an event budget guards against genuinely unstable logic.
"""

from __future__ import annotations

import heapq

from ..errors import SimulationError
from ..netlist.netlist import Netlist
from .delays import DelayModel, UnitDelay
from .simulator import NetChange, run_time_error, schedule_time_error

_INF = float("inf")


class ReferenceSimulator:
    """Event-driven simulation of one netlist instance (seed kernel)."""

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
        self._queue: list[tuple[float, int, str, int]] = []
        self._sequence = 0
        self._events_processed = 0
        self._pending: dict[str, int] = {}  # net -> live sequence number
        self.values: dict[str, int] = {}
        self.trace: list[NetChange] = []
        self._watched: set[str] = set()

        self._readers: dict[str, list] = {}
        for gate in netlist.gates:
            for net in gate.inputs:
                self._readers.setdefault(net, []).append(("gate", gate))
        for dff in netlist.dffs:
            self._readers.setdefault(dff.clock, []).append(("clock", dff))

        if initial_values:
            self.values.update(initial_values)
        for net in netlist.nets():
            self.values.setdefault(net, 0)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def watch(self, *nets: str) -> None:
        """Record every transition of the given nets into the trace."""
        self._watched.update(nets)

    def schedule(self, net: str, value: int, at: float) -> None:
        """Schedule an externally driven net change (primary inputs).

        External schedules are never cancelled by inertial semantics —
        the environment's waveform is what it is.
        """
        if not self.now <= at < _INF:
            raise schedule_time_error(net, at, self.now)
        self._push(at, net, value, cancellable=False)

    def _push(
        self, at: float, net: str, value: int, cancellable: bool = True
    ) -> None:
        self._sequence += 1
        if self.inertial and cancellable:
            # Inertial semantics: a gate output keeps at most one pending
            # transition; re-evaluation supersedes it.  Pulses shorter
            # than the gate delay are thereby filtered, as in physical
            # gates.  Lazy cancellation: stale heap entries are skipped
            # when popped.
            self._pending[net] = self._sequence
        heapq.heappush(self._queue, (at, self._sequence, net, value))

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
        events).  ``stop_net``/``stop_value`` is the equivalent inline
        level wait the compiled kernel provides; it is implemented here
        too so either kernel is a drop-in for the other.  Returns the
        simulation time reached.
        """
        if until is not None and not until >= self.now:
            raise run_time_error(until, self.now)
        if stop_net is not None:
            if stop_net not in self.values:
                raise SimulationError(f"unknown net {stop_net!r}")
            if self.values[stop_net] == stop_value:
                return self.now
        while self._queue:
            at, _, net, value = self._queue[0]
            if until is not None and at > until:
                self.now = until
                return self.now
            _, seq, _, _ = heapq.heappop(self._queue)
            self._events_processed += 1
            if self._events_processed > self.max_events:
                raise SimulationError(
                    f"event budget exceeded ({self.max_events}); "
                    f"oscillating feedback loop in {self.netlist.name!r}?"
                )
            self.now = at
            if (
                self.inertial
                and net in self._pending
                and self._pending[net] != seq
            ):
                continue  # superseded by a later re-evaluation
            if self.values.get(net) == value:
                continue
            self._apply(net, value)
            if (
                stop_net is not None
                and self.values[stop_net] == stop_value
            ):
                return self.now
            if stop_when is not None and stop_when(self):
                return self.now
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def run_until_quiet(self, timeout: float) -> float:
        """Run until no live events remain or ``timeout`` elapses.

        Raises when live events are still pending at the deadline — the
        caller expected stability and did not get it.
        """
        deadline = self.now + timeout
        if not timeout >= 0:
            raise run_time_error(deadline, self.now)
        if not self._queue:  # already quiet: just advance time
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
        for _, seq, net, _ in self._queue:
            if (
                self.inertial
                and net in self._pending
                and self._pending[net] != seq
            ):
                continue
            return True
        return False

    def _apply(self, net: str, value: int) -> None:
        self.values[net] = value
        if net in self._watched:
            self.trace.append(NetChange(self.now, net, value))
        for kind, element in self._readers.get(net, []):
            if kind == "gate":
                out = element.evaluate(self.values)
                delay = self.delays.gate_delay(element)
                self._push(self.now + delay, element.output, out)
            else:  # clock edge of a DFF
                if value == 1:  # rising edge: sample D now
                    sampled = self.values[element.d]
                    delay = self.delays.clk_to_q(element)
                    self._push(self.now + delay, element.q, sampled)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def value(self, net: str) -> int:
        try:
            return self.values[net]
        except KeyError:
            raise SimulationError(f"unknown net {net!r}") from None

    def values_reader(self, nets):
        """A zero-argument callable snapshotting ``nets`` (in order);
        the same surface the compiled kernel provides."""
        nets = tuple(nets)
        for net in nets:
            self.value(net)  # raises on unknown nets, as compiled does
        values = self.values
        return lambda: tuple(values[net] for net in nets)

    def net_reader(self, net: str):
        """Single-net reader; the same surface the compiled kernel
        provides."""
        self.value(net)  # raises on unknown nets, as compiled does
        values = self.values
        return lambda: values[net]

    def pending_events(self) -> int:
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def trace_of(self, net: str) -> list[NetChange]:
        return [change for change in self.trace if change.net == net]
