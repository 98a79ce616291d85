"""Work units, their content-hash partition, and the one executor.

The distributed pattern of the roadmap's DAC/DALC related work:
partition independent work units by **content key**, execute each
partition anywhere, merge the deterministic streams.  A
:class:`WorkUnit` is one synthesis run (batch mode) or one
validation-campaign cell (campaign mode).  It is self-describing — it
carries its table, pipeline spec and cell parameters, and round-trips
through the work queue's JSON payload — and its
:class:`~repro.store.keys.StoreKey` digest decides its shard —

    shard(unit) = int(digest, 16) % shards

— so the assignment depends only on *what* is computed: re-planning on
any machine, in any process, with the inputs in the same order, yields
the same partition.  Shards overlap nothing, cover everything, and any
``shards`` >= 1 is legal (``shards=1`` degenerates to a single-process
run; ``shards`` > units leaves some shards empty).

:func:`execute_units` is the one executor: it runs any unit list,
through a store or without one, and returns one :class:`UnitStats`
counter set carrying each unit's in-memory :class:`UnitOutcome`.  A
local campaign, ``run_shard`` (one shard's units) and a
:class:`~repro.service.QueueWorker` (one claimed unit at a time) all
run through it, so a shard run and a queue drain are interchangeable
ways of filling the store.  ``merge`` reads every unit back and
rebuilds the local stream **byte-identically**, up to the canonical
projection of :mod:`repro.store.canonical` — campaigns through the
campaign's own assembler.  A merge over an incomplete store raises
:class:`~repro.errors.StoreError` naming each missing unit and the
shard that owns it.  Batches plan units only to shard them: a local
batch is the executor's synthesis leg,
:class:`~repro.pipeline.batch.BatchRunner`, called directly.

CLI: ``seance shard plan | run --shard i/N | merge`` (see
:mod:`repro.cli`).
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from ..errors import StoreError
from ..flowtable.table import FlowTable
from ..pipeline.spec import PipelineSpec
from ..sim.campaign import Cell, run_cells
from ..sim.monitors import ValidationSummary
from .keys import StoreKey, synthesis_key, validation_key
from .store import ResultStore


def check_shard(shards: int, shard: int = 0) -> None:
    """Reject a shard count below 1 or a shard index outside
    ``0..shards - 1`` with :class:`~repro.errors.StoreError`."""
    if shards < 1:
        raise StoreError(f"shard count must be >= 1, got {shards}")
    if not 0 <= shard < shards:
        raise StoreError(f"shard index {shard} out of range 0..{shards - 1}")


def shard_of(key: StoreKey, shards: int) -> int:
    """The shard a key's work lands on (content-hash partition)."""
    check_shard(shards)
    return int(key.digest, 16) % shards


@dataclass(frozen=True)
class WorkUnit:
    """One shardable unit: its stream position, a label, and everything
    needed to compute it anywhere.

    ``cell`` carries a campaign unit's parameters; batch units leave it
    None.  ``table_index`` is the unit's table in the planner's input.
    """

    index: int
    label: str
    table_index: int
    table: FlowTable
    spec: PipelineSpec
    cell: Cell | None = None

    @cached_property
    def key(self) -> StoreKey:
        if self.cell is None:
            return synthesis_key(self.table, self.spec)
        return validation_key(
            self.table, self.spec, **dataclasses.asdict(self.cell)
        )

    def stored(self, store: ResultStore) -> bool:
        """True when ``store`` holds this unit's result (a verified
        read: a corrupt blob is not a result)."""
        if self.cell is None:
            return store.get_synthesis(self.table, self.spec) is not None
        return store.get_validation(self.key) is not None

    def to_payload(self) -> dict:
        """The work queue's JSON form (:meth:`from_payload` inverts it)."""
        from ..core.serialize import table_to_dict

        payload = {
            "digest": self.key.digest,
            "kind": self.key.kind,
            "label": self.label,
            "index": self.index,
            "table_index": self.table_index,
            "key": self.key.to_dict(),
            "table": table_to_dict(self.table),
            "spec": self.spec.to_dict(),
        }
        if self.cell is not None:
            payload["cell"] = dataclasses.asdict(self.cell)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> WorkUnit:
        """Rebuild a unit; the key is re-derived from its content."""
        from ..core.serialize import table_from_dict

        cell = payload.get("cell")
        return cls(
            index=int(payload.get("index", 0)),
            label=str(payload["label"]),
            table_index=int(payload.get("table_index", 0)),
            table=table_from_dict(payload["table"]),
            spec=PipelineSpec.from_dict(payload["spec"]),
            cell=Cell(**cell) if cell is not None else None,
        )


@dataclass(frozen=True)
class ShardPlan:
    """A unit list partitioned into ``shards`` by content hash."""

    shards: int
    units: tuple[WorkUnit, ...]

    def __post_init__(self) -> None:
        check_shard(self.shards)

    def shard_units(self, shard: int) -> tuple[WorkUnit, ...]:
        check_shard(self.shards, shard)
        return tuple(
            unit
            for unit in self.units
            if shard_of(unit.key, self.shards) == shard
        )

    def counts(self) -> list[int]:
        counts = [0] * self.shards
        for unit in self.units:
            counts[shard_of(unit.key, self.shards)] += 1
        return counts

    def describe(self) -> str:
        lines = [
            f"{len(self.units)} work units over {self.shards} shard(s):"
        ]
        for shard, count in enumerate(self.counts()):
            lines.append(f"  shard {shard}/{self.shards}: {count} unit(s)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UnitOutcome:
    """One unit's result in memory: the synthesised ``table`` name, its
    synthesis ``error`` (None on success) and, for a campaign cell, its
    ``summary``.  ``seconds`` times fresh work only."""

    table: str
    error: str | None = None
    summary: ValidationSummary | None = None
    seconds: float = 0.0
    store_hit: bool = False


@dataclass
class UnitStats:
    """Counters of one execution (see :func:`execute_units`).

    Every unit lands in exactly one of ``synthesized``, ``validated``,
    ``store_hits`` or ``failed``; ``failures`` names each failed table
    (or unexecutable unit) with its error.  ``stolen`` counts lapsed
    leases a queue worker took over.  The seconds fields time fresh
    computation only — the queue's LPT telemetry.  ``outcomes`` holds
    one :class:`UnitOutcome` per executed unit, in input order; it is
    not a counter, so :meth:`add` leaves it alone.
    """

    units: int = 0
    synthesized: int = 0
    validated: int = 0
    store_hits: int = 0
    failed: int = 0
    stolen: int = 0
    failures: dict[str, str] = field(default_factory=dict)
    synthesis_seconds: float = 0.0
    passes: Counter = field(default_factory=Counter)
    cell_seconds: float = 0.0
    outcomes: list[UnitOutcome] = field(default_factory=list, repr=False)

    def __getitem__(self, name: str):
        return getattr(self, name)

    def add(self, other: UnitStats) -> None:
        for name, value in vars(other).items():
            if name == "outcomes":
                continue
            if isinstance(value, dict):  # failures replace, passes sum
                self[name].update(value)
            else:
                setattr(self, name, self[name] + value)

    def describe(self) -> str:
        lines = [
            f"{self.units} unit(s): {self.synthesized} synthesised, "
            f"{self.validated} validated, {self.store_hits} already "
            f"stored, {self.failed} failed"
            + (f", {self.stolen} stolen" if self.stolen else "")
        ]
        for name, error in self.failures.items():
            lines.append(f"  {name}: FAILED: {error}")
        return "\n".join(lines)


def execute_units(units, store: ResultStore | None = None) -> UnitStats:
    """Compute ``units``, through ``store`` when one is given.

    The synthesis leg runs every distinct (table, spec)
    they need through one :class:`~repro.pipeline.batch.BatchRunner`:
    with a store, a stored result is a verified hit, a fresh one —
    failures included — is written back, and a corrupt blob is
    recomputed.  The validation leg (:func:`_validate_machines`) hands
    each machine's cells to :func:`~repro.sim.campaign.run_cells`.  A
    cell whose table failed synthesis counts as failed and stays absent
    from the store (the merger reads the recorded synthesis error
    instead).  Every cell runs serially, through the one cell loop; a
    local campaign, a shard run and a queue worker all reach it here.
    """
    from ..netlist.fantom import build_fantom
    from ..pipeline.batch import BatchRunner

    units = list(units)

    needs: dict[tuple[str, str], WorkUnit] = {}
    for unit in units:
        needs.setdefault((unit.key.table, unit.key.spec), unit)
    runner = BatchRunner(
        spec=units[0].spec if units else None, store=store
    )
    pairs = [(unit.table, unit.spec.options) for unit in needs.values()]
    stats = UnitStats(units=len(units), outcomes=[None] * len(units))
    items = {}
    for need, item in zip(needs, runner.run_pairs(pairs)):
        items[need] = item
        if not item.store_hit:
            stats.synthesis_seconds += item.seconds
            stats.passes.update({e.name: e.seconds for e in item.events})

    machines: dict[tuple, list[int]] = {}
    for position, unit in enumerate(units):
        item = items[(unit.key.table, unit.key.spec)]
        if item.ok and unit.cell is not None:
            fantom = (unit.key.table, unit.key.spec, unit.cell.use_fsv)
            machines.setdefault(fantom, []).append(position)
        else:
            stats.outcomes[position] = UnitOutcome(
                item.name, error=item.error, seconds=item.seconds,
                store_hit=item.store_hit,
            )
    groups = []
    for (table, spec, use_fsv), positions in machines.items():
        result = items[(table, spec)].result
        build = functools.partial(build_fantom, result, use_fsv=use_fsv)
        groups.append(
            (result.table.name, build, [units[p] for p in positions])
        )
    positions = [p for group in machines.values() for p in group]
    for position, outcome in zip(positions, _validate_machines(groups, store)):
        stats.outcomes[position] = outcome

    for unit, outcome in zip(units, stats.outcomes):
        if outcome.error is not None:
            stats.failed += 1
            stats.failures[outcome.table] = outcome.error
        elif outcome.store_hit:
            stats.store_hits += 1
        elif unit.cell is not None:
            stats.validated += 1
            stats.cell_seconds += outcome.seconds
        else:
            stats.synthesized += 1
    return stats


def _validate_machines(groups, store) -> list[UnitOutcome]:
    """The executor's validation leg: every group's cell outcomes, in
    order.  ``groups`` holds one ``(table name, build_machine, cell
    units)`` triple per machine; the machines' cells run serially
    through :func:`run_cells`, sharing delay models.
    """
    models: dict = {}
    triples = [
        run_cells(
            build,
            [(u.cell, None if store is None else u.key) for u in units],
            store,
            models,
        )
        for _name, build, units in groups
    ]
    return [
        UnitOutcome(name, summary=summary, seconds=seconds, store_hit=hit)
        for (name, _build, _units), group in zip(groups, triples)
        for summary, seconds, hit in group
    ]


def _missing_error(
    what: str, missing: list[WorkUnit], shards: int
) -> StoreError:
    lines = [
        f"cannot merge {what}: {len(missing)} work unit(s) missing "
        f"from the store"
    ]
    for unit in missing[:20]:
        lines.append(
            f"  {unit.label} (shard "
            f"{shard_of(unit.key, shards)}/{shards})"
        )
    if len(missing) > 20:
        lines.append(f"  ... and {len(missing) - 20} more")
    lines.append(
        "run the named shard(s) with `seance shard run` and merge again"
    )
    return StoreError("\n".join(lines))


class _Sharded:
    """The shared shard surface over a planned ``units`` tuple."""

    units: tuple[WorkUnit, ...]

    def plan(self, shards: int) -> ShardPlan:
        return ShardPlan(shards=shards, units=self.units)

    def run_shard(
        self, shard: int, shards: int, store: ResultStore
    ) -> UnitStats:
        """Execute (or verify) this shard's units into ``store``."""
        return execute_units(self.plan(shards).shard_units(shard), store)


# ----------------------------------------------------------------------
# Batch matrices
# ----------------------------------------------------------------------
class ShardedBatch(_Sharded):
    """A batch matrix (tables × option sets) split by content hash.

    The unit stream is exactly
    :meth:`repro.pipeline.batch.BatchRunner.run_matrix` order —
    option-major, tables in input order — and collapses to plain
    ``run`` order when ``options_list`` is omitted.
    """

    def __init__(
        self,
        tables: list[FlowTable],
        spec: PipelineSpec | None = None,
        options_list=None,
    ):
        self.tables = list(tables)
        self.spec = spec if spec is not None else PipelineSpec()
        if options_list is None:
            options_list = [self.spec.options]
        units = []
        for option_index, options in enumerate(options_list):
            spec = self.spec.with_options(options)
            for table_index, table in enumerate(self.tables):
                label = table.name
                if len(options_list) > 1:
                    label = f"{table.name}[options {option_index}]"
                units.append(
                    WorkUnit(len(units), label, table_index, table, spec)
                )
        self.units = tuple(units)

    def merge(self, store: ResultStore, shards: int = 1) -> list:
        """Reassemble the full ordered :class:`BatchItem` stream.

        ``shards`` only labels the missing-unit error (which shard to
        re-run); the stream itself is shard-count independent.
        """
        from ..pipeline.batch import BatchItem

        items = []
        missing = []
        plan = self.plan(shards)
        for unit in plan.units:
            stored = store.get_synthesis(unit.table, unit.spec)
            if stored is None:
                missing.append(unit)
                continue
            items.append(
                BatchItem.from_stored(unit.index, unit.table.name, stored)
            )
        if missing:
            raise _missing_error("batch", missing, plan.shards)
        return items


# ----------------------------------------------------------------------
# Validation campaigns
# ----------------------------------------------------------------------
class ShardedCampaign(_Sharded):
    """A campaign cell grid split by content hash.

    The units are the campaign's own plan
    (:meth:`~repro.sim.campaign.ValidationCampaign.units`).  Executing a
    cell synthesises its table through the store, so a table whose cells
    span shards is computed once and verified everywhere else — and a
    synthesis failure is recorded in the store like any other
    deterministic outcome, so the merger can rebuild the campaign's
    ``errors`` list without re-running anything.
    """

    def __init__(self, tables: list[FlowTable], campaign):
        self.tables = list(tables)
        self.campaign = campaign
        self.units = campaign.units(self.tables)

    def merge(self, store: ResultStore, shards: int = 1):
        """Reassemble the full deterministic :class:`CampaignResult`.

        Every unit's outcome is read back from ``store`` and handed to
        the campaign's assembler.  ``shards`` only labels the
        missing-unit error (which shard to re-run); the result itself is
        shard-count independent.
        """
        outcomes: list[UnitOutcome] = []
        missing: list[WorkUnit] = []
        plan = self.plan(shards)
        synthesized = {}
        for unit in plan.units:
            if unit.table_index not in synthesized:
                synthesized[unit.table_index] = store.get_synthesis(
                    unit.table, unit.spec
                )
            stored = synthesized[unit.table_index]
            if stored is not None and not stored.ok:
                outcomes.append(
                    UnitOutcome(unit.table.name, error=stored.error)
                )
                continue
            summary = None if stored is None else store.get_validation(
                unit.key
            )
            if summary is None:
                missing.append(unit)
                continue
            outcomes.append(
                UnitOutcome(
                    stored.result.table.name, summary=summary, store_hit=True
                )
            )
        if missing:
            raise _missing_error("campaign", missing, plan.shards)
        return self.campaign.assemble(plan.units, outcomes)
