"""Classic single-input-change (SIC) Huffman synthesis — the baseline.

This is the machine the literature built *before* FANTOM: the same flow
table, the same race-free USTT state assignment, but

* next-state and output equations are realised as **all-prime-implicant**
  covers (the "consensus gates" technique, paper Section 2.1), which
  removes static and dynamic logic hazards *for single-input changes
  only*;
* there is no ``fsv``, no ``SSD``, no ``VOM``, no input/output latching:
  the environment must respect fundamental mode **and** change one input
  bit at a time — the restriction the paper exists to remove;
* outputs are plain combinational functions of ``(x, y)`` (policy
  ``as_specified``), so transient output behaviour is exposed.

The comparison benchmarks use this baseline two ways: statically (logic
cost and depth against FANTOM's) and dynamically (the SIC machine is
correct on single-input-change walks, and its contract simply excludes
the multiple-input-change walks FANTOM survives).

Synthesis comes in two halves.  The front end — validate, reduce,
Tracey USTT assignment — is exactly FANTOM's first three passes;
:func:`huffman_from_assignment` builds the consensus covers from a
reduced table and its :class:`~repro.assign.tracey.AssignmentResult`.
:func:`synthesize_huffman` runs both.  A caller that already holds a
FANTOM :class:`~repro.core.result.SynthesisResult` of the same table
(the differential fuzzer) passes its ``table`` and ``assignment`` to
the second half and gets the same baseline without reducing or
assigning the table again.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..assign.tracey import AssignmentResult, assign_states
from ..core.spec import SpecifiedMachine
from ..flowtable.table import FlowTable
from ..flowtable.validation import validate
from ..logic.cube import Cube
from ..logic.depth import CostReport
from ..logic.expr import Expr, sop_to_expr
from ..logic.factor import first_level
from ..logic.quine_mccluskey import all_primes_cover
from ..minimize.reducer import reduce_flow_table


@dataclass
class HuffmanResult:
    """Output of the SIC baseline synthesis."""

    source: FlowTable
    table: FlowTable
    assignment: AssignmentResult
    spec: SpecifiedMachine
    next_state: dict[str, tuple[Cube, ...]]
    outputs: dict[str, tuple[Cube, ...]]
    equations: dict[str, Expr]

    @property
    def y_depth(self) -> int:
        return max(
            (
                self.equations[name].depth()
                for name in self.next_state
            ),
            default=0,
        )

    @property
    def cost(self) -> CostReport:
        return CostReport.of(self.equations)

    def describe(self) -> str:
        lines = [
            f"SIC Huffman baseline for {self.source.name!r} "
            f"({self.spec.num_state_vars} state variables, "
            f"single-input changes only)",
        ]
        for name, expr in self.equations.items():
            lines.append(f"  {name} = {expr.to_string()}")
        return "\n".join(lines)


def huffman_from_assignment(
    source: FlowTable,
    table: FlowTable,
    assignment: AssignmentResult,
) -> HuffmanResult:
    """All-prime consensus covers of ``table`` under ``assignment``.

    ``source`` is the unreduced table the caller started from (it only
    names the result); ``table`` is the reduced table ``assignment``
    encodes.
    """
    spec = SpecifiedMachine(table, assignment.encoding)

    next_state: dict[str, tuple[Cube, ...]] = {}
    equations: dict[str, Expr] = {}
    for n, fn in enumerate(spec.excitations()):
        cover = all_primes_cover(fn)
        name = spec.encoding.variables[n]
        next_state[name] = tuple(cover)
        equations[name] = first_level(sop_to_expr(cover, spec.names))

    outputs: dict[str, tuple[Cube, ...]] = {}
    for k, name in enumerate(table.outputs):
        fn = spec.output_function(k, policy="as_specified")
        cover = all_primes_cover(fn)
        outputs[name] = tuple(cover)
        equations[name] = first_level(sop_to_expr(cover, spec.names))

    return HuffmanResult(
        source=source,
        table=table,
        assignment=assignment,
        spec=spec,
        next_state=next_state,
        outputs=outputs,
        equations=equations,
    )


def synthesize_huffman(
    table: FlowTable,
    minimize: bool = True,
    validate_input: bool = True,
) -> HuffmanResult:
    """Synthesise the classic SIC machine for ``table``.

    The front end is FANTOM's first three passes with the same defaults
    (validate, reduce, Tracey USTT assignment); the covers come from
    :func:`huffman_from_assignment`.
    """
    if validate_input:
        validate(table)
    working = reduce_flow_table(table).table if minimize else table
    return huffman_from_assignment(table, working, assign_states(working))


def sic_walk_is_legal(table: FlowTable, columns: list[int]) -> bool:
    """True when a column sequence never changes more than one bit.

    The SIC baseline's environment contract; used by benchmarks to
    partition workloads into "both machines apply" and "FANTOM only".
    """
    from ..sim.reference import FlowTableInterpreter

    interpreter = FlowTableInterpreter(table)
    current = interpreter.stable_column()
    for column in columns:
        if (column ^ current).bit_count() > 1:
            return False
        interpreter.apply(column)
        current = column
    return True
