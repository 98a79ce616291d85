"""The netlist container: gates, flip-flops, ports, consistency checks.

A netlist is a flat graph of named nets.  Primary inputs are driven by
the environment; every other net must have exactly one driver (a gate
output or a flip-flop Q).  Combinational cycles are *allowed* — the
FANTOM architecture's state feedback and its ``G`` latch are genuine
combinational loops whose memory comes from gate delay — so validation
checks driver uniqueness and connectivity, not acyclicity.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..errors import NetlistError
from .gates import Dff, Gate, GateType


class Netlist:
    """A mutable gate-level design under construction."""

    def __init__(self, name: str):
        self.name = name
        self.primary_inputs: list[str] = []
        self.primary_outputs: list[str] = []
        self.gates: list[Gate] = []
        self.dffs: list[Dff] = []
        self._drivers: dict[str, str] = {}
        self._gate_names: set[str] = set()
        #: structural revision counter; bumped by every mutation so the
        #: memoised compiled form knows when it is stale.
        self._revision = 0
        self._compiled: tuple[int, object] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, net: str) -> str:
        if net in self._drivers:
            raise NetlistError(f"net {net!r} already driven")
        if net not in self.primary_inputs:
            self.primary_inputs.append(net)
            self._drivers[net] = f"input:{net}"
            self._revision += 1
        return net

    def mark_output(self, net: str) -> str:
        if net not in self.primary_outputs:
            self.primary_outputs.append(net)
        return net

    def add_gate(
        self,
        name: str,
        gate_type: GateType,
        inputs: Iterable[str],
        output: str,
        delay: float | None = None,
    ) -> Gate:
        if name in self._gate_names:
            raise NetlistError(f"duplicate element name {name!r}")
        if output in self._drivers:
            raise NetlistError(
                f"net {output!r} already driven by {self._drivers[output]}"
            )
        gate = Gate(name, gate_type, tuple(inputs), output, delay)
        self.gates.append(gate)
        self._gate_names.add(name)
        self._drivers[output] = name
        self._revision += 1
        return gate

    def add_dff(
        self,
        name: str,
        d: str,
        q: str,
        clock: str,
        clk_to_q: float | None = None,
    ) -> Dff:
        if name in self._gate_names:
            raise NetlistError(f"duplicate element name {name!r}")
        if q in self._drivers:
            raise NetlistError(
                f"net {q!r} already driven by {self._drivers[q]}"
            )
        dff = Dff(name, d, q, clock, clk_to_q)
        self.dffs.append(dff)
        self._gate_names.add(name)
        self._drivers[q] = name
        self._revision += 1
        return dff

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def nets(self) -> set[str]:
        """Every net mentioned anywhere in the design."""
        nets: set[str] = set(self.primary_inputs)
        for gate in self.gates:
            nets.add(gate.output)
            nets.update(gate.inputs)
        for dff in self.dffs:
            nets.update((dff.d, dff.q, dff.clock))
        return nets

    def driver_of(self, net: str) -> str | None:
        return self._drivers.get(net)

    def readers_of(self, net: str) -> list[str]:
        readers = [g.name for g in self.gates if net in g.inputs]
        readers += [
            f.name for f in self.dffs if net in (f.d, f.clock)
        ]
        return readers

    def gate_count(self) -> int:
        return len(self.gates)

    # ------------------------------------------------------------------
    def compile(self):
        """The flat integer-indexed program of this netlist.

        Memoised per structural revision, so repeated simulations of the
        same machine (a validation campaign's seeds × delay models)
        lower it exactly once.  See
        :class:`~repro.netlist.compiled.CompiledNetlist`.
        """
        from .compiled import compile_netlist

        if self._compiled is None or self._compiled[0] != self._revision:
            self._compiled = (
                self._revision,
                compile_netlist(
                    self.name, self.gates, self.dffs, self.primary_inputs
                ),
            )
        return self._compiled[1]

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`NetlistError` listing every structural problem."""
        problems = []
        for net in sorted(self.nets()):
            if net not in self._drivers:
                problems.append(f"net {net!r} has no driver")
        for net in self.primary_outputs:
            if net not in self.nets():
                problems.append(f"declared output {net!r} does not exist")
        for gate in self.gates:
            if gate.output in gate.inputs:
                # A gate reading its own output is a zero-element
                # combinational loop: it either latches arbitrarily or
                # oscillates at its own delay, and unlike the G latch
                # (whose loop passes through another gate) no delay
                # model can stabilise it.  The simulator would only
                # notice at run time, as an event-budget blowup.
                problems.append(
                    f"gate {gate.name!r} drives net {gate.output!r} and "
                    f"lists it among its own inputs (direct self-loop)"
                )
        if problems:
            raise NetlistError(
                f"netlist {self.name!r} invalid:\n  " + "\n  ".join(problems)
            )

    def stats(self) -> dict[str, int]:
        by_type: dict[str, int] = {}
        for gate in self.gates:
            by_type[gate.type.value] = by_type.get(gate.type.value, 0) + 1
        return {
            "gates": len(self.gates),
            "dffs": len(self.dffs),
            "nets": len(self.nets()),
            **{f"gate_{k}": v for k, v in sorted(by_type.items())},
        }

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}: {len(self.gates)} gates, "
            f"{len(self.dffs)} dffs)"
        )
