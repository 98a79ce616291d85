"""Monte-Carlo delay-sweep validation campaigns.

The paper's Section 4.2 claim — synthesized FANTOM machines are
hazard-free under the 4-phase environment — used to be smoke-tested by a
handful of random walks under one delay model.  A
:class:`ValidationCampaign` turns that into a scalable workload: it fans
**seeded random walks × delay models** over many machines, on the
compiled simulation kernel, and aggregates the per-cell
:class:`~repro.sim.monitors.ValidationSummary` streams deterministically
(cells are ordered table-major, then model, then seed — identical output
for identical input).

Delay models are named (:data:`DELAY_MODELS`) so a campaign is
reproducible from its textual configuration alone:

``unit``
    every gate one unit — the deterministic baseline;
``loop-safe``
    seeded random delays honouring the loop-delay assumption
    (:func:`~repro.sim.delays.loop_safe_random`);
``skewed`` / ``hostile``
    progressively wider input-skew windows (the hazard-ablation regime);
``corner``
    the deterministic worst-case boundary of the loop-safe region per
    Section 4.3 (:class:`~repro.sim.delays.CornerDelay`; the sweep seed
    flips the corner's polarity).

A campaign is a plan run by the one unit executor:
:meth:`ValidationCampaign.units` plans one
:class:`~repro.store.sharding.WorkUnit` per (table, model, seed) cell,
:meth:`~ValidationCampaign.run` executes the plan with
:func:`~repro.store.sharding.execute_units` (as shards and queue workers
do), and :meth:`~ValidationCampaign.assemble` builds the
:class:`CampaignResult` from the units' outcomes — ``shard merge`` feeds
it store reads instead.  Every cell runs serially through
:func:`run_cells`, which generates each (table, steps, seed) walk once
and replays it under every delay model — fresh silicon per cell, same
stimulus.  Shards and queue workers are the way to scale out.

Entry points: ``seance validate --sweep N --delay-model M`` and
:meth:`repro.api.Session.validate`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

from ..errors import SimulationError
from ..netlist.fantom import FantomMachine
from .delays import (
    CornerDelay,
    UnitDelay,
    hostile_random,
    loop_safe_random,
    skewed_random,
)
from .harness import (
    expected_walk,
    export_walk_vcd,
    random_legal_walk,
    validate_walk,
)
from .monitors import ValidationSummary
from .simulator import Simulator


def _unit_model(seed: int, machine: FantomMachine):
    return UnitDelay()


def _loop_safe_model(seed: int, machine: FantomMachine):
    return loop_safe_random(seed)


def _skewed_model(seed: int, machine: FantomMachine):
    return skewed_random(seed)


def _hostile_model(seed: int, machine: FantomMachine):
    return hostile_random(seed)


def _corner_model(seed: int, machine: FantomMachine):
    return CornerDelay(phase=seed)


#: Named delay-model factories: ``name -> f(seed, machine) -> DelayModel``.
#: Module-level functions (not lambdas) so cell tasks cross process
#: boundaries by name.
DELAY_MODELS = {
    "unit": _unit_model,
    "loop-safe": _loop_safe_model,
    "skewed": _skewed_model,
    "hostile": _hostile_model,
    "corner": _corner_model,
}

#: Simulation kernels a campaign can drive, by name: one kernel with its
#: cycle memo off (``compiled``) or on (``ring``).  The names are kept
#: from when these were two classes, as every stored validation key and
#: the pinned fuzz findings carry them.
ENGINES = {"compiled": partial(Simulator, replay=False), "ring": Simulator}


def _reference_engine():
    from ._reference import ReferenceSimulator

    return ReferenceSimulator


def default_engine() -> str:
    """The kernel used when no ``engine`` is given explicitly: ``"ring"``.

    With the fractional-time tick grid every built-in delay model runs
    on the fast kernel, so the campaign bulk takes it by default.
    """
    return "ring"


def delay_model(name: str, seed: int, machine: FantomMachine):
    """Instantiate the named delay model for one campaign cell."""
    try:
        factory = DELAY_MODELS[name]
    except KeyError:
        raise SimulationError(
            f"unknown delay model {name!r}; available: "
            f"{', '.join(sorted(DELAY_MODELS))}"
        ) from None
    return factory(seed, machine)


def _resolve_engine(engine: str):
    if engine == "reference":
        return _reference_engine()
    try:
        return ENGINES[engine]
    except KeyError:
        raise SimulationError(
            f"unknown simulation engine {engine!r}; available: "
            f"{', '.join(sorted((*ENGINES, 'reference')))}"
        ) from None


@dataclass(frozen=True)
class Cell:
    """A campaign cell's parameters: the validation key's workload."""

    model: str
    seed: int
    steps: int
    engine: str
    use_fsv: bool


def run_cells(build_machine, cells, store, models) -> list:
    """Run one machine's campaign cells, in order — the one cell loop.

    ``cells`` is a sequence of ``(cell, key)`` pairs: a :class:`Cell`
    and its validation :class:`~repro.store.keys.StoreKey` (``None``
    when ``store`` is ``None``).  For each cell:

    1. a cell the store holds is replayed, not simulated;
    2. the walk and its reference step stream are computed once per
       (steps, seed) and shared by every delay model's cell, so the
       interpreter never runs inside a timed cell;
    3. one delay-model instance per (model, seed) is built and kept in
       ``models``, which callers share across machines — the built-in
       models draw by gate *name*, so a shared instance assigns exactly
       the delays a fresh one would;
    4. the walk is validated on fresh silicon and, with a store, the
       summary is written back — and a dirty cell's replayed waveform
       is filed next to it as a ``<kind>/<digest>.vcd`` artifact, so
       the evidence is a download, not a rerun (the replay is
       deterministic: same walk, same seed-derived silicon).

    ``build_machine`` returns the
    :class:`~repro.netlist.fantom.FantomMachine`; it is called once, at
    the first cell the store does not hold.  Returns one ``(summary,
    seconds, store_hit)`` triple per cell.
    """
    machine = None
    walks: dict[tuple[int, int], tuple] = {}
    outcomes = []
    for cell, key in cells:
        summary = None if store is None else store.get_validation(key)
        if summary is not None:
            outcomes.append((summary, 0.0, True))
            continue
        if machine is None:
            machine = build_machine()
        walk_key = (cell.steps, cell.seed)
        if walk_key not in walks:
            table = machine.result.table
            walk = random_legal_walk(table, cell.steps, seed=cell.seed)
            walks[walk_key] = (walk, expected_walk(table, walk))
        walk, expected = walks[walk_key]
        delays = models.get((cell.model, cell.seed))
        if delays is None:
            delays = models[cell.model, cell.seed] = delay_model(
                cell.model, cell.seed, machine
            )
        factory = _resolve_engine(cell.engine)
        start = time.perf_counter()
        summary = validate_walk(
            machine,
            walk,
            delays=delays,
            simulator_factory=factory,
            expected=expected,
        )
        seconds = time.perf_counter() - start
        if store is not None:
            store.put_validation(key, summary)
            if not summary.all_clean:
                vcd = export_walk_vcd(
                    machine, walk, delays=delays, simulator_factory=factory
                )
                store.put_artifact(key, "vcd", vcd.encode())
        outcomes.append((summary, seconds, False))
    return outcomes


@dataclass(frozen=True)
class CampaignCell:
    """One (machine, delay model, seed) validation run.

    ``store_hit`` marks a cell replayed from a content-addressed
    :class:`~repro.store.ResultStore` instead of simulated.
    """

    table: str
    model: str
    seed: int
    summary: ValidationSummary
    seconds: float
    store_hit: bool = False

    @property
    def clean(self) -> bool:
        return self.summary.all_clean

    @property
    def engine_path(self) -> str | None:
        """Kernel-path provenance (``ring``/``ticks``/``heap``).

        Derived from the summary's kernel telemetry so cells
        reconstructed from a result store report exactly what the
        original run recorded; ``None`` when the cell predates
        telemetry or ran the reference kernel.
        """
        kernel = self.summary.kernel
        if not kernel:
            return None
        paths = kernel.get("paths")
        if not paths:
            return None
        return "+".join(sorted(paths))


@dataclass
class CampaignResult:
    """Deterministic aggregate of a whole campaign.

    ``cells`` is ordered table-major, then by delay model, then by seed
    — the same stream for the same configuration, whether it ran
    locally, over shards or through queue workers.  ``errors``
    carries synthesis failures (a failing table never aborts the
    campaign).
    """

    models: tuple[str, ...]
    sweep: int
    steps: int
    cells: list[CampaignCell] = field(default_factory=list)
    errors: list[tuple[str, str]] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def total_cycles(self) -> int:
        return sum(cell.summary.total for cell in self.cells)

    @property
    def failures(self) -> list[CampaignCell]:
        return [cell for cell in self.cells if not cell.clean]

    @property
    def all_clean(self) -> bool:
        return not self.failures and not self.errors

    @property
    def store_hits(self) -> int:
        """Cells replayed from a warm result store, not simulated."""
        return sum(1 for cell in self.cells if cell.store_hit)

    def merged(self) -> ValidationSummary:
        """Every cycle of every cell, in the deterministic cell order."""
        summary = ValidationSummary()
        for cell in self.cells:
            for report in cell.summary.cycles:
                summary.add(report)
        return summary

    def by_model(self) -> dict[str, ValidationSummary]:
        """Cell cycles aggregated per delay model (campaign order)."""
        grouped: dict[str, ValidationSummary] = {
            model: ValidationSummary() for model in self.models
        }
        for cell in self.cells:
            for report in cell.summary.cycles:
                grouped[cell.model].add(report)
        return grouped

    def kernel_paths(self) -> dict[str, int]:
        """Cells per kernel path (``?`` for cells without telemetry)."""
        paths: dict[str, int] = {}
        for cell in self.cells:
            path = cell.engine_path or "?"
            paths[path] = paths.get(path, 0) + 1
        return paths

    def describe(self) -> str:
        lines = [
            f"validation campaign: {len(self.cells)} cells "
            f"({self.sweep} seeds x {len(self.models)} models), "
            f"{self.total_cycles} cycles"
        ]
        if self.store_hits:
            lines[0] += (
                f" [{self.store_hits}/{len(self.cells)} cells from "
                f"warm store]"
            )
        if self.cells:
            paths = ", ".join(
                f"{path}:{count}"
                for path, count in sorted(self.kernel_paths().items())
            )
            lines.append(f"  kernel paths: {paths}")
        for model, summary in self.by_model().items():
            status = "clean" if summary.all_clean else "FAILED"
            lines.append(f"  {model:10s} {summary.describe()}  [{status}]")
        for table, error in self.errors:
            lines.append(f"  {table}: synthesis FAILED: {error}")
        if self.failures:
            first = self.failures[0]
            lines.append(
                f"  first failure: table {first.table!r}, model "
                f"{first.model!r}, seed {first.seed}"
            )
        return "\n".join(lines)


class ValidationCampaign:
    """Fan seeded walks × delay models over synthesised machines.

    Parameters
    ----------
    sweep:
        Walks per (machine, delay model) — seeds ``base_seed ..
        base_seed + sweep - 1``.
    steps:
        Hand-shake cycles per walk.
    delay_models:
        Names from :data:`DELAY_MODELS`, validated eagerly.
    base_seed:
        First walk seed; a campaign is reproducible from
        ``(tables, spec, sweep, steps, delay_models, base_seed)``.
    use_fsv:
        ``False`` builds the unprotected machines (hazard ablation).
    spec:
        :class:`~repro.pipeline.spec.PipelineSpec` for the synthesis
        phase (its options).
    engine:
        ``"ring"`` (the default, via :func:`default_engine`) — the
        event kernel of :mod:`repro.sim.simulator` with hand-shake
        cycle replay, exact on the dyadic time grid every built-in
        delay model draws on (off-grid delays run the plain heap
        loop); ``"compiled"`` — the same kernel with replay off; or
        ``"reference"`` — the retained seed kernel, for benchmarking and
        distrust.  All three are pinned trace-equivalent.
    store:
        A content-addressed :class:`~repro.store.ResultStore` (or a
        path/backend to open one over).  The synthesis phase routes
        through a store-backed :class:`~repro.pipeline.batch.BatchRunner`,
        and every cell whose ``(table, spec, model, seed, steps, engine,
        fsv)`` key is stored is replayed instead of simulated
        (``cell.store_hit``); fresh cells are written back.  Cell keys
        derive from each machine's *source* table and ``uses_fsv`` flag,
        so ``run_machines`` consumers must hand over machines built
        under this campaign's ``spec``.
    """

    def __init__(
        self,
        sweep: int = 3,
        steps: int = 30,
        delay_models: tuple[str, ...] = ("loop-safe",),
        base_seed: int = 0,
        use_fsv: bool = True,
        spec=None,
        engine: str | None = None,
        store=None,
    ):
        if engine is None:
            engine = default_engine()
        if sweep < 1:
            raise SimulationError(f"sweep must be >= 1, got {sweep}")
        if steps < 1:
            raise SimulationError(f"steps must be >= 1, got {steps}")
        if not delay_models:
            raise SimulationError("a campaign needs at least one delay model")
        for model in delay_models:
            if model not in DELAY_MODELS:
                raise SimulationError(
                    f"unknown delay model {model!r}; available: "
                    f"{', '.join(sorted(DELAY_MODELS))}"
                )
        _resolve_engine(engine)
        self.sweep = sweep
        self.steps = steps
        self.delay_models = tuple(delay_models)
        self.base_seed = base_seed
        self.use_fsv = use_fsv
        self.spec = spec
        self.engine = engine
        from ..store.store import open_store

        self.store = open_store(store)

    # ------------------------------------------------------------------
    @property
    def seeds(self) -> tuple[int, ...]:
        return tuple(range(self.base_seed, self.base_seed + self.sweep))

    def units(self, tables) -> tuple:
        """The campaign's plan — the only cell planner: one
        :class:`~repro.store.sharding.WorkUnit` per (table, model, seed)
        cell, table-major, keyed on the *source* tables (no synthesis
        needed to plan)."""
        return self._plan((table, self.use_fsv) for table in tables)

    def run(self, tables) -> CampaignResult:
        """Plan ``tables``, execute the plan, assemble the result."""
        from ..store.sharding import execute_units

        units = self.units(tables)
        stats = execute_units(units, self.store)
        return self.assemble(units, stats.outcomes)

    def run_names(self, names) -> CampaignResult:
        """Campaign over built-in benchmarks by name."""
        from ..bench.suite import benchmark

        return self.run([benchmark(name) for name in names])

    def run_machines(self, machines) -> CampaignResult:
        """Sweep machines that are already built (the ``verify`` pass).

        Each machine's cells are planned on its source table and its own
        ``uses_fsv`` flag — properties of the machine actually simulated
        — and run through the executor's validation leg.
        """
        from ..store.sharding import _validate_machines

        machines = list(machines)
        units = self._plan(
            (machine.result.source, machine.uses_fsv) for machine in machines
        )
        groups = [
            (
                machine.result.table.name,
                lambda m=machine: m,
                [unit for unit in units if unit.table_index == index],
            )
            for index, machine in enumerate(machines)
        ]
        return self.assemble(units, _validate_machines(groups, self.store))

    def assemble(self, units, outcomes) -> CampaignResult:
        """The :class:`CampaignResult` of a plan and its outcomes.

        ``outcomes`` holds one :class:`~repro.store.sharding.UnitOutcome`
        per unit, in plan order — from the executor or from store reads
        (``ShardedCampaign.merge``).  A table that failed synthesis
        contributes one ``errors`` entry and no cells.
        """
        result = CampaignResult(
            models=self.delay_models, sweep=self.sweep, steps=self.steps
        )
        failed = set()
        for unit, outcome in zip(units, outcomes):
            if outcome.error is None:
                cell = unit.cell
                result.cells.append(
                    CampaignCell(
                        outcome.table, cell.model, cell.seed, outcome.summary,
                        outcome.seconds, outcome.store_hit,
                    )
                )
            elif unit.table_index not in failed:
                failed.add(unit.table_index)
                result.errors.append((outcome.table, outcome.error))
        return result

    # ------------------------------------------------------------------
    def _plan(self, sources) -> tuple:
        """Units for ``(table, use_fsv)`` sources, in campaign order."""
        from ..pipeline.spec import PipelineSpec
        from ..store.sharding import WorkUnit

        spec = self.spec if self.spec is not None else PipelineSpec()
        units = []
        for table_index, (table, use_fsv) in enumerate(sources):
            for model in self.delay_models:
                for seed in self.seeds:
                    cell = Cell(model, seed, self.steps, self.engine, use_fsv)
                    label = f"{table.name}/{model}/seed{seed}"
                    units.append(WorkUnit(
                        len(units), label, table_index, table, spec, cell
                    ))
        return tuple(units)
