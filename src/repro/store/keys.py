"""Content-addressed keys for the result store.

A :class:`StoreKey` names one unit of work by *what it computes*, never
by where or when it ran:

* ``table`` — sha256 of the canonical flow-table text
  (:func:`table_fingerprint`), so two tables that synthesise
  identically share a key and two that differ anywhere — including
  signal names — never collide;
* ``spec`` — :meth:`repro.pipeline.spec.PipelineSpec.fingerprint`
  (the options and the fixed stage list);
* ``workload`` — the unit's own parameters: ``"synth"`` for a synthesis
  run, or the full ``(model, seed, steps, engine, fsv)`` tuple of one
  validation-campaign cell.

The blob digest folds all three plus :data:`STORE_FORMAT_VERSION`, so a
layout change orphans old blobs instead of misreading them.  The same
digest is what the shard planner partitions by — work units land on
shards deterministically, independent of input order or machine count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..flowtable.table import FlowTable
from ..pipeline.spec import PipelineSpec

#: Bump when the envelope layout or payload wire format changes
#: incompatibly; old blobs then read as misses, never as wrong results.
STORE_FORMAT_VERSION = 1

#: Blob kinds the store understands.
KIND_SYNTHESIS = "synthesis"
KIND_VALIDATION = "validation"
KIND_FUZZ = "fuzz"


def table_fingerprint(table: FlowTable) -> str:
    """A canonical text form of a flow table, for hashing.

    KISS2 serialisation is *not* used because it drops signal names; the
    fingerprint must distinguish tables that synthesise to differently
    named equations.
    """
    lines = [
        f"name={table.name!r}",
        f"inputs={tuple(table.inputs)!r}",
        f"outputs={tuple(table.outputs)!r}",
        f"states={tuple(table.states)!r}",
        f"reset={table.reset_state!r}",
    ]
    # The full entry map, not just specified_entries(): a cell with an
    # unspecified successor can still carry output bits, and those bits
    # feed output-compatibility during reduction — two tables differing
    # only there must not share a key.
    for (state, column), entry in sorted(table.entry_map().items()):
        lines.append(
            f"{(state, column, entry.next_state, entry.outputs)!r}"
        )
    return "\n".join(lines)


def table_digest(table: FlowTable) -> str:
    """sha256 of the canonical flow-table text."""
    return hashlib.sha256(table_fingerprint(table).encode()).hexdigest()


@dataclass(frozen=True)
class StoreKey:
    """Identity of one stored result (see the module docstring)."""

    kind: str
    table: str
    spec: str
    workload: str

    @property
    def digest(self) -> str:
        """The content hash the blob is filed (and sharded) under."""
        digest = hashlib.sha256()
        digest.update(
            repr(
                (
                    STORE_FORMAT_VERSION,
                    self.kind,
                    self.table,
                    self.spec,
                    self.workload,
                )
            ).encode()
        )
        return digest.hexdigest()

    @property
    def blob_name(self) -> str:
        return f"{self.kind}/{self.digest}.json"

    def to_dict(self) -> dict:
        """The envelope form the store verifies blobs against."""
        return {
            "kind": self.kind,
            "table": self.table,
            "spec": self.spec,
            "workload": self.workload,
        }


def synthesis_key(table: FlowTable, spec: PipelineSpec) -> StoreKey:
    """The key of one (table, spec) synthesis result."""
    return StoreKey(
        kind=KIND_SYNTHESIS,
        table=table_digest(table),
        spec=spec.fingerprint(),
        workload="synth",
    )


def fuzz_key(
    table: FlowTable,
    spec: PipelineSpec,
    *,
    models: tuple[str, ...],
    steps: int,
    walk_seed: int,
) -> StoreKey:
    """The key of one differential-fuzz report for a corpus machine.

    The report is pure data of ``(table, spec, models, steps,
    walk_seed)``: every engine pair is deterministic, so a warm store
    can skip re-fuzzing an unchanged machine.
    """
    return StoreKey(
        kind=KIND_FUZZ,
        table=table_digest(table),
        spec=spec.fingerprint(),
        workload=(
            f"models={','.join(models)}:steps={steps}:walk={walk_seed}"
        ),
    )


def validation_key(
    table: FlowTable,
    spec: PipelineSpec,
    *,
    model: str,
    seed: int,
    steps: int,
    engine: str,
    use_fsv: bool,
) -> StoreKey:
    """The key of one validation-campaign cell.

    A cell is pure data — the walk is derived from ``(table, steps,
    seed)`` and the silicon from ``(model, seed)`` — so these parameters
    plus the synthesis identity fully determine the cell's
    :class:`~repro.sim.monitors.ValidationSummary`.
    """
    return StoreKey(
        kind=KIND_VALIDATION,
        table=table_digest(table),
        spec=spec.fingerprint(),
        workload=(
            f"model={model}:seed={seed}:steps={steps}"
            f":engine={engine}:fsv={use_fsv}"
        ),
    )
