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

``default_passes()`` returns the paper pipeline in order; ablations and
future workloads build alternative lists from the same parts (or new
:class:`Pass` implementations) without touching the manager.

Every class here registers itself in the named-pass registry
(:mod:`repro.pipeline.registry`), the default stages under their stage
names and the ablation variants under ``stage:variant`` keys
(``"factor:joint"``, ``"hazards:off"``, ...).  A variant keeps its base
``name`` — it caches, times, and reports as the stage it replaces — so
swapping one in is a pure pass substitution, shape-preserving for every
consumer of ``stage_seconds`` and :class:`PipelineReport`.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..assign.tracey import assign_states
from ..assign.verify import ustt_violations
from ..errors import SynthesisError
from ..flowtable.validation import validate
from ..minimize.reducer import ReductionResult, reduce_flow_table
from .context import PipelineContext
from .registry import DEFAULT_PIPELINE, register_pass, resolve_passes


@runtime_checkable
class Pass(Protocol):
    """One stage of the synthesis pipeline.

    ``name`` keys the stage's timing entry and its cache slot; ``requires``
    and ``provides`` are the artifact contract the manager enforces.  A
    pass with ``cacheable = False`` always executes (use for passes with
    side effects or non-deterministic diagnostics).
    """

    name: str
    requires: tuple[str, ...]
    provides: tuple[str, ...]
    cacheable: bool

    def run(self, ctx: PipelineContext) -> None:
        """Produce ``provides`` from ``ctx``; raise ReproError on failure."""
        ...


@register_pass("validate")
class ValidatePass:
    """Step 1: flow table preparation (validation)."""

    name = "validate"
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ()
    cacheable = True

    def run(self, ctx: PipelineContext) -> None:
        if ctx.options.validate_input:
            validate(ctx.table)


@register_pass("reduce")
class ReducePass:
    """Step 2: table reduction (state minimisation)."""

    name = "reduce"
    requires: tuple[str, ...] = ()
    provides = ("reduction", "working")
    cacheable = True

    def run(self, ctx: PipelineContext) -> None:
        if ctx.options.minimize:
            reduction = reduce_flow_table(ctx.table)
        else:
            reduction = ReductionResult(
                table=ctx.table,
                cover=_trivial_cover(ctx.table),
                state_map={s: (s,) for s in ctx.table.states},
            )
        ctx.set("reduction", reduction)
        ctx.set("working", reduction.table)


@register_pass("assign")
class AssignPass:
    """Step 3: USTT state assignment (Tracey)."""

    name = "assign"
    requires = ("working",)
    provides = ("assignment", "spec")
    cacheable = True

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


@register_pass("outputs")
class OutputsPass:
    """Step 4: output determination (Z and SSD)."""

    name = "outputs"
    requires = ("spec",)
    provides = ("outputs", "ssd")
    cacheable = True

    def run(self, ctx: PipelineContext) -> None:
        from ..core.outputs import synthesize_outputs
        from ..core.ssd import synthesize_ssd

        spec = ctx.get("spec")
        ctx.set("outputs", synthesize_outputs(spec, ctx.options.output_policy))
        ctx.set("ssd", synthesize_ssd(spec, ctx.options.ssd_dc_policy))


@register_pass("hazards")
class HazardsPass:
    """Step 5: hazard search (paper Figure 4)."""

    name = "hazards"
    requires = ("spec",)
    provides = ("analysis",)
    cacheable = True

    def run(self, ctx: PipelineContext) -> None:
        from ..core.hazard_analysis import find_hazards

        ctx.set("analysis", find_hazards(ctx.get("spec")))


@register_pass("fsv")
class FsvPass:
    """Step 6: fsv and canonical Y equations."""

    name = "fsv"
    requires = ("spec", "analysis")
    provides = ("fsv_fn", "y_fns")
    cacheable = True

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


@register_pass("factor")
class FactorPass:
    """Step 7: hazard factoring (paper Figure 5)."""

    name = "factor"
    requires = ("spec", "fsv_fn", "y_fns")
    provides = ("fsv", "next_state")
    cacheable = True

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


# ----------------------------------------------------------------------
# Registered ablation variants.  Each keeps its base stage name (it is a
# drop-in substitution) but is a distinct class, so the stage-cache
# lineage distinguishes it from the default implementation.
# ----------------------------------------------------------------------
@register_pass("validate:off")
class SkipValidatePass:
    """Step 1 disabled: accept the table as given (ablation/testing)."""

    name = "validate"
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ()
    cacheable = True

    def run(self, ctx: PipelineContext) -> None:
        return None


@register_pass("reduce:off")
class TrivialReducePass:
    """Step 2 disabled: keep every original state (one class per state).

    Unlike ``options.minimize=False`` this ignores the options entirely —
    the substitution *is* the knob.
    """

    name = "reduce"
    requires: tuple[str, ...] = ()
    provides = ("reduction", "working")
    cacheable = True

    def run(self, ctx: PipelineContext) -> None:
        reduction = ReductionResult(
            table=ctx.table,
            cover=_trivial_cover(ctx.table),
            state_map={s: (s,) for s in ctx.table.states},
        )
        ctx.set("reduction", reduction)
        ctx.set("working", reduction.table)


@register_pass("outputs:all-primes")
class AllPrimesOutputsPass:
    """Step 4 with all-primes covers for Z and SSD.

    The paper's architecture latches outputs at VOM, which is what lets
    Step 4 use *minimum* covers; this variant spends the full
    logic-hazard-free all-primes cover instead — the cover-ablation
    benchmark diffs the two to quantify what the latching buys.
    """

    name = "outputs"
    requires = ("spec",)
    provides = ("outputs", "ssd")
    cacheable = True

    def run(self, ctx: PipelineContext) -> None:
        from ..core.outputs import OutputEquation
        from ..core.ssd import SsdEquation
        from ..logic.expr import sop_to_expr
        from ..logic.factor import first_level
        from ..logic.quine_mccluskey import all_primes_cover

        spec = ctx.get("spec")
        equations = []
        for k, name in enumerate(spec.table.outputs):
            cover = all_primes_cover(
                spec.output_function(k, ctx.options.output_policy)
            )
            equations.append(
                OutputEquation(
                    name=name,
                    cover=tuple(cover),
                    expr=first_level(sop_to_expr(cover, spec.names)),
                    exact=True,
                )
            )
        ctx.set("outputs", equations)
        ssd_cover = all_primes_cover(
            spec.ssd_function(ctx.options.ssd_dc_policy)
        )
        ctx.set(
            "ssd",
            SsdEquation(
                cover=tuple(ssd_cover),
                expr=first_level(sop_to_expr(ssd_cover, spec.names)),
                exact=True,
                dc_policy=ctx.options.ssd_dc_policy,
            ),
        )


@register_pass("hazards:off")
class SkipHazardsPass:
    """Step 5 disabled: report an *empty* hazard analysis without searching.

    Downstream stages then build the unprotected machine, and the result
    records no hazard points at all (contrast ``fsv:unprotected``, which
    still runs the search and reports what it knowingly leaves in).
    """

    name = "hazards"
    requires = ("spec",)
    provides = ("analysis",)
    cacheable = True

    def run(self, ctx: PipelineContext) -> None:
        from ..core.hazard_analysis import HazardAnalysis

        spec = ctx.get("spec")
        ctx.set(
            "analysis", HazardAnalysis(num_state_vars=spec.num_state_vars)
        )


@register_pass("fsv:unprotected")
class UnprotectedFsvPass:
    """Step 6 without the hazard correction: ``fsv`` is the constant 0.

    The Figure-4 analysis artifact is left untouched (and reported), so
    the result records which hazards were knowingly left in — this is
    the unprotected machine of the hazard-ablation benchmark, as a pass
    substitution instead of ``options.hazard_correction=False``.
    """

    name = "fsv"
    requires = ("spec", "analysis")
    provides = ("fsv_fn", "y_fns")
    cacheable = True

    def run(self, ctx: PipelineContext) -> None:
        from ..core.fsv import fsv_function, next_state_functions
        from ..core.hazard_analysis import HazardAnalysis

        spec = ctx.get("spec")
        empty = HazardAnalysis(num_state_vars=spec.num_state_vars)
        ctx.set("fsv_fn", fsv_function(spec, empty))
        ctx.set("y_fns", next_state_functions(spec, empty))


class _ForcedModeFactorPass:
    """Step 7 with the reduction style pinned (ignores ``reduce_mode``)."""

    name = "factor"
    requires = ("spec", "fsv_fn", "y_fns")
    provides = ("fsv", "next_state")
    cacheable = True
    reduce_mode = "split"

    def run(self, ctx: PipelineContext) -> None:
        from ..core.factoring import factor_fsv, factor_next_state

        spec = ctx.get("spec")
        fsv_index = spec.width
        ctx.set("fsv", factor_fsv(ctx.get("fsv_fn")))
        ctx.set(
            "next_state",
            [
                factor_next_state(
                    fn,
                    fsv_index,
                    name=spec.encoding.variables[n],
                    reduce_mode=self.reduce_mode,
                )
                for n, fn in enumerate(ctx.get("y_fns"))
            ],
        )


@register_pass("factor:split")
class SplitFactorPass(_ForcedModeFactorPass):
    """Step 7 pinned to the paper's split (per-half) reduction."""

    reduce_mode = "split"


@register_pass("factor:joint")
class JointFactorPass(_ForcedModeFactorPass):
    """Step 7 pinned to joint reduction over the doubled space (ablation)."""

    reduce_mode = "joint"


# ----------------------------------------------------------------------
# Dynamic validation as a pipeline stage.
# ----------------------------------------------------------------------
@register_pass("verify")
class VerifyPass:
    """Dynamic validation gate: simulate the synthesised machine.

    Not part of the paper's Figure-3 pipeline (hence absent from
    ``DEFAULT_PIPELINE``); append it to a spec's pass list to make every
    synthesis run prove its machine dynamically::

        spec = PipelineSpec().with_passes(*DEFAULT_PIPELINE, "verify")

    The pass assembles the gate-level FANTOM machine from the pipeline
    artifacts and runs a small :class:`~repro.sim.campaign.
    ValidationCampaign` (``SWEEP`` seeded walks under each of
    ``MODELS``) on the default simulation engine (``ring``: the event
    kernel of :mod:`repro.sim.simulator` with cycle replay).  A dirty
    machine
    raises :class:`~repro.errors.ValidationError`, failing the run; a
    clean one stores the :class:`~repro.sim.campaign.CampaignResult`
    as the ``validation`` artifact.
    """

    name = "verify"
    requires = (
        "reduction",
        "assignment",
        "spec",
        "analysis",
        "fsv",
        "next_state",
        "outputs",
        "ssd",
    )
    provides = ("validation",)
    cacheable = True

    #: Campaign shape: small enough for an inline gate, covering the
    #: deterministic baseline (unit) and the Section-4.3 worst-case
    #: boundary (corner).  The loop-safe random model is deliberately
    #: absent: the whole built-in suite is clean under these models,
    #: while ``lion9`` has a pre-existing loop-safe anomaly (see
    #: ROADMAP) that would make the gate unusable on a paper benchmark.
    #: Use ``Session.validate()`` / ``seance validate`` for wider
    #: sweeps.
    SWEEP = 2
    STEPS = 12
    MODELS = ("unit", "corner")

    def run(self, ctx: PipelineContext) -> None:
        from ..core.result import SynthesisResult
        from ..errors import ValidationError
        from ..netlist.fantom import build_fantom
        from ..sim.campaign import ValidationCampaign

        result = SynthesisResult(
            source=ctx.table,
            reduction=ctx.get("reduction"),
            assignment=ctx.get("assignment"),
            spec=ctx.get("spec"),
            analysis=ctx.get("analysis"),
            fsv=ctx.get("fsv"),
            next_state=ctx.get("next_state"),
            outputs=ctx.get("outputs"),
            ssd=ctx.get("ssd"),
            stage_seconds={},
        )
        machine = build_fantom(result, use_fsv=ctx.options.hazard_correction)
        campaign = ValidationCampaign(
            sweep=self.SWEEP, steps=self.STEPS, delay_models=self.MODELS
        )
        report = campaign.run_machines([machine])
        if not report.all_clean:
            raise ValidationError(
                f"machine {ctx.table.name!r} failed dynamic validation:\n"
                f"{report.describe()}"
            )
        ctx.set("validation", report)


def default_passes() -> tuple[Pass, ...]:
    """The paper's Figure-3 pipeline, in order (from the registry)."""
    return resolve_passes(DEFAULT_PIPELINE)


def _trivial_cover(table):
    from ..minimize.cover_search import ClosedCover

    return ClosedCover(
        classes=tuple(frozenset({s}) for s in table.states),
        exact=True,
    )
