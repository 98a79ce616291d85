"""The synthesis report: everything SEANCE produced for one machine.

Bundles the artifacts of every pipeline stage with the Table-1 metrics
(fsv depth, Y depth, total depth) and per-stage wall-clock times for the
runtime benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..assign.tracey import AssignmentResult
from ..flowtable.table import FlowTable, TableStats
from ..logic.cube import Cube
from ..logic.depth import DepthReport
from ..logic.expr import Expr
from ..minimize.reducer import ReductionResult
from .factoring import FactoredEquation
from .hazard_analysis import HazardAnalysis
from .outputs import OutputEquation
from .spec import SpecifiedMachine
from .ssd import SsdEquation


@dataclass
class SynthesisResult:
    """Full output of one SEANCE run.

    The equations dictionary views (:meth:`equations`, :meth:`covers`)
    aggregate everything the architecture instantiates: ``fsv``, every
    ``Y_n``, every ``Z_k`` and ``SSD``.
    """

    source: FlowTable
    reduction: ReductionResult
    assignment: AssignmentResult
    spec: SpecifiedMachine
    analysis: HazardAnalysis
    fsv: FactoredEquation
    next_state: list[FactoredEquation]
    outputs: list[OutputEquation]
    ssd: SsdEquation
    stage_seconds: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def table(self) -> FlowTable:
        """The (possibly reduced) table the machine was built from."""
        return self.reduction.table

    @property
    def depth_report(self) -> DepthReport:
        return DepthReport(
            fsv_depth=self.fsv.expr.depth(),
            y_depth=max(
                (eq.expr.depth() for eq in self.next_state), default=0
            ),
        )

    def table1_row(self) -> tuple[str, int, int, int]:
        """(benchmark, fsv depth, Y depth, total depth) — a Table 1 row."""
        return self.depth_report.row(self.source.name)

    # ------------------------------------------------------------------
    def equations(self) -> dict[str, Expr]:
        """All synthesised expressions keyed by signal name."""
        eqs: dict[str, Expr] = {self.fsv.name: self.fsv.expr}
        for eq in self.next_state:
            eqs[eq.name] = eq.expr
        for eq in self.outputs:
            eqs[eq.name] = eq.expr
        eqs["SSD"] = self.ssd.expr
        return eqs

    def covers(self) -> dict[str, tuple[Cube, ...]]:
        """All synthesised covers keyed by signal name."""
        covers: dict[str, tuple[Cube, ...]] = {self.fsv.name: self.fsv.cover}
        for eq in self.next_state:
            covers[eq.name] = eq.cover
        for eq in self.outputs:
            covers[eq.name] = eq.cover
        covers["SSD"] = self.ssd.cover
        return covers

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The JSON wire form of the result.

        Two layers share the dictionary: the human/tooling summary
        (``depths``, ``equations``, ``hazards``, ... — all *derived*
        views, used by the CLI's ``--json`` flag) and the ``artifacts``
        section, which carries every stage artifact completely enough
        for :meth:`from_dict` to reconstruct the result object.  The
        round-trip is byte-identical:
        ``SynthesisResult.from_dict(r.to_dict()).to_dict() == r.to_dict()``.
        """
        from .serialize import (
            analysis_to_dict,
            assignment_to_dict,
            equation_to_dict,
            reduction_to_dict,
            ssd_equation_to_dict,
            table_to_dict,
        )

        report = self.depth_report
        stats = TableStats.of(self.source)
        artifacts = {
            "source": table_to_dict(self.source),
            "reduction": reduction_to_dict(self.reduction),
            "assignment": assignment_to_dict(self.assignment),
            "analysis": analysis_to_dict(self.analysis),
            "fsv": equation_to_dict(self.fsv),
            "next_state": [equation_to_dict(eq) for eq in self.next_state],
            "outputs": [equation_to_dict(eq) for eq in self.outputs],
            "ssd": ssd_equation_to_dict(self.ssd),
        }
        return {
            "artifacts": artifacts,
            "name": self.source.name,
            "flow_table": {
                "states": stats.num_states,
                "inputs": stats.num_inputs,
                "outputs": stats.num_outputs,
                "specified_entries": stats.num_specified,
                "stable_points": stats.num_stable,
                "transitions": stats.num_transitions,
                "mic_transitions": stats.num_mic_transitions,
            },
            "reduction": {
                "reduced_states": self.table.num_states,
                "classes": {
                    name: list(members)
                    for name, members in self.reduction.state_map.items()
                },
            },
            "encoding": {
                "variables": list(self.assignment.encoding.variables),
                "codes": {
                    state: self.assignment.encoding.code_string(state)
                    for state in self.table.states
                },
                "exact": self.assignment.exact,
            },
            "hazards": {
                "fsv_minterms": sorted(self.analysis.fl),
                "records": self.analysis.hazard_count(),
                "transitions_examined": self.analysis.transitions_examined,
            },
            "depths": {
                "fsv": report.fsv_depth,
                "y": report.y_depth,
                "total": report.total_depth,
            },
            "equations": {
                name: expr.to_string()
                for name, expr in self.equations().items()
            },
            "stage_seconds": dict(self.stage_seconds),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SynthesisResult":
        """Rebuild a result from :meth:`to_dict` output.

        Only the ``artifacts`` and ``stage_seconds`` sections are read;
        the summary sections are derived views and are regenerated
        (identically) by the next :meth:`to_dict` call.
        """
        from ..errors import SynthesisError
        from .serialize import (
            analysis_from_dict,
            assignment_from_dict,
            factored_equation_from_dict,
            output_equation_from_dict,
            reduction_from_dict,
            ssd_equation_from_dict,
            table_from_dict,
        )
        from .spec import SpecifiedMachine

        try:
            artifacts = payload["artifacts"]
            source = table_from_dict(artifacts["source"])
            reduction = reduction_from_dict(artifacts["reduction"], source)
            assignment = assignment_from_dict(artifacts["assignment"])
            return cls(
                source=source,
                reduction=reduction,
                assignment=assignment,
                spec=SpecifiedMachine(reduction.table, assignment.encoding),
                analysis=analysis_from_dict(artifacts["analysis"]),
                fsv=factored_equation_from_dict(artifacts["fsv"]),
                next_state=[
                    factored_equation_from_dict(eq)
                    for eq in artifacts["next_state"]
                ],
                outputs=[
                    output_equation_from_dict(eq)
                    for eq in artifacts["outputs"]
                ],
                ssd=ssd_equation_from_dict(artifacts["ssd"]),
                stage_seconds=dict(payload.get("stage_seconds", {})),
            )
        except (KeyError, TypeError, ValueError, IndexError) as error:
            raise SynthesisError(
                f"malformed synthesis-result payload: "
                f"{type(error).__name__}: {error}"
            ) from error

    def describe(self) -> str:
        """Human-readable synthesis report."""
        stats = TableStats.of(self.source)
        report = self.depth_report
        lines = [
            f"SEANCE synthesis of {self.source.name!r}",
            f"  flow table : {stats.num_states} states, "
            f"{stats.num_inputs} inputs, {stats.num_outputs} outputs, "
            f"{stats.num_mic_transitions} multi-input-change transitions",
        ]
        if self.reduction.table is not self.source:
            lines.append(
                f"  reduced    : {self.reduction.table.num_states} states "
                f"({self.reduction.cover.num_classes} classes)"
            )
        encoding = self.assignment.encoding
        if self.assignment.exact:
            provenance = "exact"
        elif encoding.num_variables == (len(encoding.states) - 1).bit_length():
            # n states need at least ceil(log2 n) variables.
            provenance = "heuristic, meets ⌈log₂ n⌉ bound"
        else:
            provenance = "heuristic"
        lines.append(
            f"  encoding   : {encoding.num_variables} state "
            f"variables ({provenance})"
        )
        lines.append(
            f"  hazards    : {len(self.analysis.fl)} fsv minterms, "
            f"{self.analysis.hazard_count()} (point, variable) records"
        )
        lines.append(
            f"  depths     : fsv={report.fsv_depth}  "
            f"Y={report.y_depth}  total={report.total_depth}"
        )
        lines.append("  equations  :")
        for name, expr in self.equations().items():
            lines.append(f"    {name} = {expr.to_string()}")
        if self.stage_seconds:
            timing = ", ".join(
                f"{stage}={seconds * 1000:.1f}ms"
                for stage, seconds in self.stage_seconds.items()
            )
            lines.append(f"  timing     : {timing}")
        return "\n".join(lines)
