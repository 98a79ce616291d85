"""The seven SEANCE stages (paper Figure 3) as pipeline passes.

Each pass wraps one step of the paper's flow and declares its artifact
contract (``requires``/``provides``) against the
:class:`~repro.pipeline.context.PipelineContext`:

=========  =========================  ==================================
pass       requires                   provides
=========  =========================  ==================================
validate   —                          —          (raises on a bad table)
reduce     —                          reduction, working
assign     working                    assignment, spec
outputs    spec                       outputs, ssd
hazards    spec                       analysis
fsv        spec, analysis             fsv_fn, y_fns
factor     spec, fsv_fn, y_fns        fsv, next_state
=========  =========================  ==================================

``default_passes()`` returns the paper pipeline in order.  The stage
list is fixed (:data:`STAGES`); the passes read the
:class:`~repro.pipeline.options.SynthesisOptions`, which is where every
ablation lives.  A :class:`~repro.pipeline.manager.PassManager` still
accepts any list of :class:`Pass` objects, which is how tests run fakes.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..assign.tracey import assign_states
from ..assign.verify import ustt_violations
from ..errors import SynthesisError
from ..flowtable.validation import validate
from ..minimize.cover_search import ClosedCover
from ..minimize.reducer import ReductionResult, reduce_flow_table
from .context import PipelineContext


@runtime_checkable
class Pass(Protocol):
    """One stage of the synthesis pipeline.

    ``name`` keys the stage's timing entry; ``requires`` and
    ``provides`` are the artifact contract the manager enforces.
    """

    name: str
    requires: tuple[str, ...]
    provides: tuple[str, ...]

    def run(self, ctx: PipelineContext) -> None:
        """Produce ``provides`` from ``ctx``; raise ReproError on failure."""
        ...


class ValidatePass:
    """Step 1: flow table preparation (validation)."""

    name = "validate"
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ()

    def run(self, ctx: PipelineContext) -> None:
        if ctx.options.validate_input:
            validate(ctx.table)


class ReducePass:
    """Step 2: table reduction (state minimisation)."""

    name = "reduce"
    requires: tuple[str, ...] = ()
    provides = ("reduction", "working")

    def run(self, ctx: PipelineContext) -> None:
        if ctx.options.minimize:
            reduction = reduce_flow_table(ctx.table)
        else:
            reduction = ReductionResult(
                table=ctx.table,
                cover=ClosedCover(
                    classes=tuple(frozenset({s}) for s in ctx.table.states),
                    exact=True,
                ),
                state_map={s: (s,) for s in ctx.table.states},
            )
        ctx.set("reduction", reduction)
        ctx.set("working", reduction.table)


class AssignPass:
    """Step 3: USTT state assignment (Tracey)."""

    name = "assign"
    requires = ("working",)
    provides = ("assignment", "spec")

    def run(self, ctx: PipelineContext) -> None:
        from ..core.spec import SpecifiedMachine

        working = ctx.get("working")
        assignment = assign_states(working)
        if ctx.options.verify_assignment:
            problems = ustt_violations(working, assignment.encoding)
            if problems:
                raise SynthesisError(
                    "state assignment violates the USTT condition:\n  "
                    + "\n  ".join(problems)
                )
        ctx.set("assignment", assignment)
        ctx.set("spec", SpecifiedMachine(working, assignment.encoding))


class OutputsPass:
    """Step 4: output determination (Z and SSD)."""

    name = "outputs"
    requires = ("spec",)
    provides = ("outputs", "ssd")

    def run(self, ctx: PipelineContext) -> None:
        from ..core.outputs import synthesize_outputs
        from ..core.ssd import synthesize_ssd

        spec = ctx.get("spec")
        ctx.set("outputs", synthesize_outputs(spec, ctx.options.output_policy))
        ctx.set("ssd", synthesize_ssd(spec, ctx.options.ssd_dc_policy))


class HazardsPass:
    """Step 5: hazard search (paper Figure 4)."""

    name = "hazards"
    requires = ("spec",)
    provides = ("analysis",)

    def run(self, ctx: PipelineContext) -> None:
        from ..core.hazard_analysis import find_hazards

        ctx.set("analysis", find_hazards(ctx.get("spec")))


class FsvPass:
    """Step 6: fsv and canonical Y equations."""

    name = "fsv"
    requires = ("spec", "analysis")
    provides = ("fsv_fn", "y_fns")

    def run(self, ctx: PipelineContext) -> None:
        from ..core.fsv import fsv_function, next_state_functions
        from ..core.hazard_analysis import HazardAnalysis

        spec = ctx.get("spec")
        if ctx.options.hazard_correction:
            effective = ctx.get("analysis")
        else:
            effective = HazardAnalysis(num_state_vars=spec.num_state_vars)
        ctx.set("fsv_fn", fsv_function(spec, effective))
        ctx.set("y_fns", next_state_functions(spec, effective))


class FactorPass:
    """Step 7: hazard factoring (paper Figure 5)."""

    name = "factor"
    requires = ("spec", "fsv_fn", "y_fns")
    provides = ("fsv", "next_state")

    def run(self, ctx: PipelineContext) -> None:
        from ..core.factoring import factor_fsv, factor_next_state

        spec = ctx.get("spec")
        fsv_index = spec.width  # fsv is the top bit of the doubled space
        ctx.set("fsv", factor_fsv(ctx.get("fsv_fn")))
        ctx.set(
            "next_state",
            [
                factor_next_state(
                    fn,
                    fsv_index,
                    name=spec.encoding.variables[n],
                    reduce_mode=ctx.options.reduce_mode,
                )
                for n, fn in enumerate(ctx.get("y_fns"))
            ],
        )


#: The paper's Figure-3 pipeline: one class per stage, in order.
STAGES: tuple[type, ...] = (
    ValidatePass,
    ReducePass,
    AssignPass,
    OutputsPass,
    HazardsPass,
    FsvPass,
    FactorPass,
)


def default_passes() -> tuple[Pass, ...]:
    """The paper's Figure-3 pipeline, in order (fresh instances)."""
    return tuple(stage() for stage in STAGES)
