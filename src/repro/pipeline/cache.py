"""Content-hash stage cache for the pass pipeline.

Synthesis is deterministic: every artifact is a pure function of the
source flow table, the options, and the passes that ran before it.  The
cache therefore keys each stage by

    sha256(cache format version
           ‖ canonical flow-table text (incl. signal/state names)
           ‖ canonical options items
           ‖ the pass lineage up to and including this stage)

and stores the artifacts the stage provided.  Re-synthesising the same
table with the same options — the bench suite re-running, a repeated
name in one batch, a property test shrinking — skips every stage whose
key is already present.

The cache lives in one process's memory: it serves repeat runs inside a
process.  Work shared across processes goes through the verified result
store (:mod:`repro.store`), which keeps whole results as JSON envelopes
checked against their key on read.

Note the prefix hash means an ablated run (say ``reduce_mode="joint"``)
shares *no* keys with the paper-default run even though their first
stages compute identical artifacts: options are hashed whole.  That is
deliberate — it keeps the key derivation auditable and can never serve
a stale artifact.  The remaining caveat: a pass whose *behaviour*
changes without its class moving or being renamed (an edited method, a
pass reading global state) is indistinguishable to the key; bump
:data:`CACHE_FORMAT_VERSION` when editing pass semantics in place.
"""

from __future__ import annotations

import hashlib
from typing import Any

from ..flowtable.table import FlowTable
from .options import SynthesisOptions

#: Bump when artifact layout or pass semantics change incompatibly.
CACHE_FORMAT_VERSION = 1


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


def run_fingerprint(table: FlowTable, options: SynthesisOptions) -> str:
    """The (table, options) prefix every stage key of a run derives from."""
    digest = hashlib.sha256()
    digest.update(f"v{CACHE_FORMAT_VERSION}\n".encode())
    digest.update(table_fingerprint(table).encode())
    digest.update(repr(options.fingerprint_items()).encode())
    return digest.hexdigest()


def stage_key(run_prefix: str, pass_names: tuple[str, ...]) -> str:
    """The content hash identifying one stage of one run.

    ``pass_names`` is the pipeline prefix up to and including the stage
    (the manager passes ``name=module.QualName`` entries, so swapping a
    pass *implementation* under the same name also changes the key);
    inserting, removing or reordering passes invalidates every key
    downstream of the edit.
    """
    digest = hashlib.sha256()
    digest.update(run_prefix.encode())
    # repr of the tuple, not a joined string: pass names are arbitrary,
    # and ("a/b",) must never collide with ("a", "b").
    digest.update(repr(tuple(pass_names)).encode())
    return digest.hexdigest()


#: Entries a :class:`StageCache` holds before evicting the oldest (FIFO).
#: Synthesis artifacts are small; the bound is a safety valve for
#: unbounded batch loops, not a tuned policy.
MAX_ENTRIES = 4096


class StageCache:
    """In-memory store of completed stages, bounded by
    :data:`MAX_ENTRIES`.

    ``hits``/``misses``/``stores`` expose effectiveness to the
    benchmarks.
    """

    def __init__(self):
        self._memory: dict[str, dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        """The stage's artifacts, or None on a miss."""
        artifacts = self._memory.get(key)
        if artifacts is None:
            self.misses += 1
            return None
        self.hits += 1
        return artifacts

    def put(self, key: str, artifacts: dict[str, Any]) -> None:
        while len(self._memory) >= MAX_ENTRIES:
            self._memory.pop(next(iter(self._memory)))
        self._memory[key] = artifacts
        self.stores += 1

    def clear(self) -> None:
        self._memory.clear()
