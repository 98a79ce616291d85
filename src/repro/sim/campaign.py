"""Monte-Carlo delay-sweep validation campaigns.

The paper's Section 4.2 claim — synthesized FANTOM machines are
hazard-free under the 4-phase environment — used to be smoke-tested by a
handful of random walks under one delay model.  A
:class:`ValidationCampaign` turns that into a scalable workload: it fans
**seeded random walks × delay models** over many machines, on the
compiled simulation kernel, and aggregates the per-cell
:class:`~repro.sim.monitors.ValidationSummary` streams deterministically
(cells are ordered table-major, then model, then seed — identical output
for identical input regardless of ``jobs``).

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

Walks depend only on (table, seed), so the campaign generates each walk
once and replays it under every delay model — fresh silicon per cell,
same stimulus.  Synthesis routes through the existing
:class:`~repro.pipeline.batch.BatchRunner` (ordered stream, shared
stage cache, ``jobs`` worker processes); with ``jobs > 1`` the
validation cells themselves fan out over a process pool as well.

Entry points: ``seance validate --sweep N --delay-model M --jobs J``,
:meth:`repro.api.Session.validate`, and the ``verify`` pipeline pass
(:mod:`repro.pipeline.passes`), which fails synthesis outright on a
dirty machine.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ..errors import SimulationError
from ..netlist.fantom import FantomMachine, build_fantom
from .delays import (
    CornerDelay,
    UnitDelay,
    hostile_random,
    loop_safe_random,
    skewed_random,
)
from .harness import expected_walk, random_legal_walk, validate_walk
from .monitors import ValidationSummary
from .ring import RingSimulator
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

#: Simulation kernels a campaign can drive, by name (picklable).
ENGINES = {"compiled": Simulator, "ring": RingSimulator}


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


def archive_failure_vcd(
    store, key, machine, walk, model: str, seed: int, engine: str
) -> None:
    """Archive a dirty cell's replayed waveform next to its envelope.

    Store-lifecycle satellite of the fleet story: a failing cell's
    evidence is a downloadable ``<kind>/<digest>.vcd`` blob, not a
    rerun on someone's laptop.  The replay is deterministic (same walk,
    same seed-derived silicon), so the archived waveform shows exactly
    the failing events the scoring run judged.
    """
    from .harness import export_walk_vcd

    vcd = export_walk_vcd(
        machine,
        walk,
        delays=delay_model(model, seed, machine),
        simulator_factory=_resolve_engine(engine),
    )
    store.put_artifact(key, "vcd", vcd.encode())


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
    — the same stream for the same configuration no matter how many
    worker processes ran it.  ``errors`` carries synthesis failures
    (a failing table never aborts the campaign).
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


# ----------------------------------------------------------------------
# Worker-side cell execution
# ----------------------------------------------------------------------
#: Per-worker machine list, installed once by `_init_campaign_worker` so
#: machines cross the process boundary once, not per cell.
_WORKER_MACHINES: list[FantomMachine] | None = None


def _init_campaign_worker(machines: list[FantomMachine]) -> None:
    global _WORKER_MACHINES
    _WORKER_MACHINES = machines


def _run_cell(
    cell_index: int,
    machine_index: int,
    model: str,
    seed: int,
    walk: list[int],
    engine: str,
    expected=None,
) -> tuple[int, ValidationSummary, float]:
    """Validate one walk on fresh silicon; module-level for pickling."""
    machine = _WORKER_MACHINES[machine_index]
    start = time.perf_counter()
    summary = validate_walk(
        machine,
        walk,
        delays=delay_model(model, seed, machine),
        simulator_factory=_resolve_engine(engine),
        expected=expected,
    )
    return cell_index, summary, time.perf_counter() - start


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
    jobs:
        Worker processes for synthesis *and* for the validation cells;
        1 runs everything serially in-process.
    spec:
        :class:`~repro.pipeline.spec.PipelineSpec` for the synthesis
        phase (pass variants, options, stage cache).
    engine:
        ``"ring"`` (the default, via :func:`default_engine`) — the
        event-ring kernel of :mod:`repro.sim.ring`: fractional delays
        run on an exact fixed-point tick grid (off-grid ones on the
        heap), with batched fronts and run-segment replay, so every
        built-in delay model stays on the fast path; ``"compiled"`` —
        the heap kernel; or ``"reference"`` — the retained seed kernel,
        for benchmarking and distrust.  All three are pinned
        trace-equivalent.
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
        jobs: int = 1,
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
        self.jobs = jobs
        self.spec = spec
        self.engine = engine
        from ..store.store import open_store

        self.store = open_store(store)

    # ------------------------------------------------------------------
    @property
    def seeds(self) -> tuple[int, ...]:
        return tuple(range(self.base_seed, self.base_seed + self.sweep))

    def run(self, tables) -> CampaignResult:
        """Synthesise ``tables`` (through the BatchRunner), then sweep."""
        from ..pipeline.batch import BatchRunner

        runner = BatchRunner(
            spec=self.spec, jobs=self.jobs, store=self.store
        )
        result = CampaignResult(
            models=self.delay_models, sweep=self.sweep, steps=self.steps
        )
        machines = []
        for item in runner.run(list(tables)):
            if item.ok:
                machines.append(build_fantom(item.result, use_fsv=self.use_fsv))
            else:
                result.errors.append((item.name, item.error))
        return self._sweep_machines(machines, result)

    def run_names(self, names) -> CampaignResult:
        """Campaign over built-in benchmarks by name."""
        from ..bench.suite import benchmark

        return self.run([benchmark(name) for name in names])

    def run_machines(self, machines) -> CampaignResult:
        """Sweep machines that are already built (the ``verify`` pass)."""
        result = CampaignResult(
            models=self.delay_models, sweep=self.sweep, steps=self.steps
        )
        return self._sweep_machines(list(machines), result)

    # ------------------------------------------------------------------
    def _cells(self, machines):
        """The cell grid in deterministic order, walks computed once.

        Each (machine, seed) walk and its reference-interpreter step
        stream are computed once and shared across every delay model's
        cell — the interpreter never runs inside a timed cell.
        """
        cells = []
        for machine_index, machine in enumerate(machines):
            table = machine.result.table
            walks = {
                seed: random_legal_walk(table, self.steps, seed=seed)
                for seed in self.seeds
            }
            steps = {
                seed: expected_walk(table, walk)
                for seed, walk in walks.items()
            }
            for model in self.delay_models:
                for seed in self.seeds:
                    cells.append(
                        (machine_index, model, seed, walks[seed],
                         steps[seed])
                    )
        return cells

    def _cell_keys(self, machines, cells):
        """Store keys per cell (None when no store is attached).

        Keyed on each machine's *source* table and its ``uses_fsv``
        flag — properties of the machine actually simulated — plus this
        campaign's (spec, steps, engine) workload parameters.
        """
        if self.store is None:
            return [None] * len(cells)
        from ..pipeline.spec import PipelineSpec
        from ..store.keys import validation_key

        spec = self.spec if self.spec is not None else PipelineSpec()
        return [
            validation_key(
                machines[mi].result.source,
                spec,
                model=model,
                seed=seed,
                steps=self.steps,
                engine=self.engine,
                use_fsv=machines[mi].uses_fsv,
            )
            for mi, model, seed, _walk, _expected in cells
        ]

    def _sweep_machines(self, machines, result: CampaignResult):
        cells = self._cells(machines)
        keys = self._cell_keys(machines, cells)
        replayed: dict[int, ValidationSummary] = {}
        if self.store is not None:
            for i, key in enumerate(keys):
                summary = self.store.get_validation(key)
                if summary is not None:
                    replayed[i] = summary
        pending = [i for i in range(len(cells)) if i not in replayed]

        if self.jobs > 1 and len(pending) > 1:
            outcomes = self._sweep_parallel(
                machines, [cells[i] for i in pending]
            )
        else:
            # One delay model instance per (model, seed) for the whole
            # sweep: the built-in models draw by instance *name*, so a
            # shared instance assigns exactly the delays a fresh one
            # would, without re-deriving them per machine.
            models: dict[tuple[str, int], object] = {}
            outcomes = []
            for i in pending:
                mi, model, seed, walk, expected = cells[i]
                key = (model, seed)
                delays = models.get(key)
                if delays is None:
                    delays = models[key] = delay_model(
                        model, seed, machines[mi]
                    )
                start = time.perf_counter()
                summary = validate_walk(
                    machines[mi],
                    walk,
                    delays=delays,
                    simulator_factory=_resolve_engine(self.engine),
                    expected=expected,
                )
                outcomes.append(
                    (i, summary, time.perf_counter() - start)
                )
        computed = {
            cell_index: (summary, seconds)
            for cell_index, (_i, summary, seconds) in zip(
                pending, outcomes
            )
        }
        for i, (machine_index, model, seed, _walk, _expected) in enumerate(
            cells
        ):
            if i in replayed:
                summary, seconds, hit = replayed[i], 0.0, True
            else:
                summary, seconds = computed[i]
                hit = False
                if self.store is not None:
                    self.store.put_validation(keys[i], summary)
                    if not summary.all_clean:
                        archive_failure_vcd(
                            self.store,
                            keys[i],
                            machines[machine_index],
                            _walk,
                            model,
                            seed,
                            self.engine,
                        )
            result.cells.append(
                CampaignCell(
                    table=machines[machine_index].result.table.name,
                    model=model,
                    seed=seed,
                    summary=summary,
                    seconds=seconds,
                    store_hit=hit,
                )
            )
        return result

    def _sweep_parallel(self, machines, cells):
        workers = min(self.jobs, len(cells))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_campaign_worker,
            initargs=(machines,),
        ) as pool:
            futures = [
                pool.submit(
                    _run_cell, i, mi, model, seed, walk, self.engine,
                    expected,
                )
                for i, (mi, model, seed, walk, expected) in enumerate(cells)
            ]
            # Input order, not completion order — the result stream is
            # deterministic no matter which worker finishes first.
            return [future.result() for future in futures]
