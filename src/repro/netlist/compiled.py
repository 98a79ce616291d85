"""Lowering a :class:`~repro.netlist.netlist.Netlist` to a flat program.

The event-driven simulator's hot loop used to interpret the netlist
object graph directly: string-keyed value dicts, a ``readers`` dict of
``(kind, element)`` tuples, per-event ``Gate.evaluate`` calls that
rebuild an input list and re-branch on the gate type, and a delay-model
virtual call per scheduled event.  ``compile()`` removes every one of
those per-event costs by lowering the design once into a
:class:`CompiledNetlist` — a flat, integer-indexed program:

* **net ids** — every net name becomes a dense integer index (first
  mention order, so ids are deterministic for a given construction
  sequence); net values live in a flat list indexed by id;
* **per-gate input-id tuples** and a parallel output-id array;
* **truth-table ints** — the paper's gate repertoire (AND, OR, NOR,
  BUF, CONST) is entirely *symmetric*, so a gate's function is a pure
  function of how many of its inputs are 1.  Each gate precompiles to a
  ``(k+1)``-bit truth table indexed by that ones-count:
  ``output = tt >> count & 1``.  The kernel maintains the count
  incrementally (one add per fanout edge per event), so evaluation is
  O(1) bit-indexing instead of an O(k) re-read of the input nets —
  and, unlike a ``2**k`` minterm table, the representation stays tiny
  for the wide OR gates synthesised covers produce;
* **fanout adjacency** — per net, the reading gate indices (one entry
  per input *occurrence*, in the exact reader order the reference
  interpreter uses, so event sequence numbers — and therefore heap
  tie-breaking — are reproduced bit-for-bit) and the flip-flop indices
  clocked by the net.

The compiled form is delay-free and value-free: one
:class:`CompiledNetlist` is shared by every simulator instance over the
same netlist (``Netlist.compile()`` memoises per structural revision),
while delays and state stay per-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import NetlistError
from .gates import Dff, Gate, GateType


def count_truth_table(gate_type: GateType, arity: int) -> int:
    """The ``(arity+1)``-bit ones-count truth table of a symmetric gate.

    Bit ``c`` is the gate's output when exactly ``c`` inputs are 1.
    Every type in the paper's repertoire is symmetric, so this is exact.
    """
    if gate_type is GateType.AND:
        return 1 << arity
    if gate_type is GateType.OR:
        return ((1 << (arity + 1)) - 1) & ~1
    if gate_type is GateType.NOR:
        return 1
    if gate_type is GateType.BUF:
        return 2
    if gate_type is GateType.CONST0:
        return 0
    if gate_type is GateType.CONST1:
        return 1
    raise NetlistError(f"cannot compile gate type {gate_type!r}")


@dataclass(frozen=True)
class CompiledNetlist:
    """A netlist lowered to integer-indexed arrays (see module docs)."""

    name: str
    #: net id -> name (dense; the inverse of ``net_ids``).
    net_names: tuple[str, ...]
    #: net name -> id.
    net_ids: dict[str, int]
    #: ids of the primary-input nets.
    input_ids: tuple[int, ...]

    # Gates (parallel arrays indexed by gate index, netlist order).
    gate_names: tuple[str, ...]
    gate_inputs: tuple[tuple[int, ...], ...]
    gate_output: tuple[int, ...]
    #: ones-count-indexed truth tables (:func:`count_truth_table`).
    gate_tt: tuple[int, ...]

    # Flip-flops (parallel arrays indexed by dff index, netlist order).
    dff_names: tuple[str, ...]
    dff_d: tuple[int, ...]
    dff_q: tuple[int, ...]
    dff_clock: tuple[int, ...]

    # Fanout adjacency, indexed by net id.
    #: reading gate indices, one entry per input occurrence, in
    #: reference reader order (all gates before all dffs).
    fan_gates: tuple[tuple[int, ...], ...]
    #: aggregated ``(gate index, multiplicity)`` pairs per net — the
    #: count-update plan (a net feeding one gate twice moves its count
    #: by two per transition).
    fan_counts: tuple[tuple[tuple[int, int], ...], ...]
    #: flip-flop indices clocked by the net.
    fan_dffs: tuple[tuple[int, ...], ...]

    #: simulator fanout plans memoised per resolved delay vector — a
    #: campaign builds one simulator per (seed, delay model) cell over
    #: the same program, and deterministic models (unit, corner) resolve
    #: to identical delays every cell.  Keyed by
    #: ``(tuple(gate_delays), tuple(dff_delays))``; see
    #: :meth:`repro.sim.simulator.Simulator._make_runner`.
    plan_cache: dict = field(default_factory=dict, compare=False, repr=False)
    #: simulator set-up memoised per initial state and per delay-model
    #: object (``("counts", bytes(values))`` -> per-gate ones counts,
    #: ``("model", id(model))`` -> the model's resolution), so the walks
    #: of one machine and model share it; bounded like ``plan_cache``.
    #: See :class:`repro.sim.simulator.Simulator`.
    setup_cache: dict = field(default_factory=dict, compare=False, repr=False)

    # ------------------------------------------------------------------
    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    @property
    def num_gates(self) -> int:
        return len(self.gate_output)

    @property
    def num_dffs(self) -> int:
        return len(self.dff_q)

    def evaluate_gate(self, index: int, ones: int) -> int:
        """Output of gate ``index`` when ``ones`` of its inputs are 1."""
        return self.gate_tt[index] >> ones & 1

    def __repr__(self) -> str:
        return (
            f"CompiledNetlist({self.name!r}: {self.num_nets} nets, "
            f"{self.num_gates} gates, {self.num_dffs} dffs)"
        )


def compile_netlist(
    name: str,
    gates: list[Gate],
    dffs: list[Dff],
    primary_inputs: list[str],
) -> CompiledNetlist:
    """Lower netlist elements into a :class:`CompiledNetlist`.

    Net ids are assigned in first-mention order (primary inputs, then
    each gate's inputs and output, then each flip-flop's d/q/clock), so
    the numbering is a pure function of construction order.
    """
    net_ids: dict[str, int] = {}
    net_names: list[str] = []

    def net_id(net: str) -> int:
        nid = net_ids.get(net)
        if nid is None:
            nid = len(net_names)
            net_ids[net] = nid
            net_names.append(net)
        return nid

    input_ids = tuple(net_id(net) for net in primary_inputs)

    gate_names = []
    gate_inputs = []
    gate_output = []
    gate_tt = []
    for gate in gates:
        gate_names.append(gate.name)
        gate_inputs.append(tuple(net_id(net) for net in gate.inputs))
        gate_output.append(net_id(gate.output))
        gate_tt.append(count_truth_table(gate.type, len(gate.inputs)))

    dff_names = []
    dff_d = []
    dff_q = []
    dff_clock = []
    for dff in dffs:
        dff_names.append(dff.name)
        dff_d.append(net_id(dff.d))
        dff_q.append(net_id(dff.q))
        dff_clock.append(net_id(dff.clock))

    num_nets = len(net_names)
    fan_gates: list[list[int]] = [[] for _ in range(num_nets)]
    fan_dffs: list[list[int]] = [[] for _ in range(num_nets)]
    for g, inputs in enumerate(gate_inputs):
        for nid in inputs:
            fan_gates[nid].append(g)
    for f, clock in enumerate(dff_clock):
        fan_dffs[clock].append(f)

    fan_counts: list[tuple[tuple[int, int], ...]] = []
    for readers in fan_gates:
        seen: dict[int, int] = {}
        for g in readers:
            seen[g] = seen.get(g, 0) + 1
        fan_counts.append(tuple(seen.items()))

    return CompiledNetlist(
        name=name,
        net_names=tuple(net_names),
        net_ids=net_ids,
        input_ids=input_ids,
        gate_names=tuple(gate_names),
        gate_inputs=tuple(gate_inputs),
        gate_output=tuple(gate_output),
        gate_tt=tuple(gate_tt),
        dff_names=tuple(dff_names),
        dff_d=tuple(dff_d),
        dff_q=tuple(dff_q),
        dff_clock=tuple(dff_clock),
        fan_gates=tuple(tuple(r) for r in fan_gates),
        fan_counts=tuple(fan_counts),
        fan_dffs=tuple(tuple(r) for r in fan_dffs),
    )
