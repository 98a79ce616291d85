"""Content-hash stage cache for the pass pipeline.

Synthesis is deterministic: every artifact is a pure function of the
source flow table, the options, and the passes that ran before it.  The
cache therefore keys each stage by

    sha256(cache format version
           ‖ canonical flow-table text (incl. signal/state names)
           ‖ canonical options items
           ‖ the pass-name prefix up to and including this stage)

and stores the artifacts the stage provided.  Re-synthesising the same
table — the bench suite re-running, an ablation sharing its prefix with
the paper-default run, a property test shrinking — skips every stage
whose key is already present.

Two tiers:

* an in-memory dictionary (always on), and
* an optional persistent tier over a
  :class:`~repro.store.backend.StoreBackend` (``path=...`` — a local
  directory or an ``http(s)://`` object store), so separate
  processes/invocations — ``seance batch --cache-dir`` — and whole
  fleets share warm stages.  Each persistent
  entry is a self-describing envelope (a ``repro-stage <version>
  <key>`` header ahead of the pickled artifacts) verified on read:
  corrupt, truncated, cross-wired, or incompatibly-versioned blobs are
  misses (counted in ``rejected``), never errors — the same
  degrade-to-recompute contract the result store makes.

Note the prefix hash means an ablated run (say ``reduce_mode="joint"``)
shares *no* keys with the paper-default run even though their first
stages compute identical artifacts: options are hashed whole.  That is
deliberate — it keeps the key derivation auditable and can never serve
a stale artifact.  The remaining caveat: a pass whose *behaviour*
changes without its class moving or being renamed (an edited method, a
pass reading global state) is indistinguishable to the key; bump
:data:`CACHE_FORMAT_VERSION` (or clear the cache directory) when
editing pass semantics in place.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Any

from ..flowtable.table import FlowTable
from .options import SynthesisOptions

#: Bump when artifact layout or pass semantics change incompatibly.
CACHE_FORMAT_VERSION = 1

#: Version of the persistent stage-blob envelope (header + pickle).
STAGE_BLOB_VERSION = 1


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


class StageCache:
    """In-memory (optionally backend-persisted) store of completed stages.

    ``path`` names the persistent tier: a local directory (the classic
    ``--cache-dir``), or any :func:`~repro.store.backend.resolve_backend`
    location — an ``http(s)://`` object store, so ablation sweeps
    across a fleet share warm pass prefixes.
    An explicit ``backend`` wins over ``path``.  ``max_entries`` bounds
    the in-memory tier (FIFO eviction — synthesis artifacts are small,
    the bound is a safety valve for unbounded batch loops, not a tuned
    policy).  ``hits``/``misses``/``stores``/``rejected`` expose
    effectiveness and fail-safety to the benchmarks.
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        max_entries: int = 4096,
        backend=None,
        policy=None,
    ):
        from ..store.backend import resolve_backend

        self._memory: dict[str, dict[str, Any]] = {}
        if backend is not None:
            self._backend = backend
        elif path is not None:
            # ``policy`` tunes the transport when ``path`` is a
            # networked location (retry/timeout/breaker).
            self._backend = resolve_backend(path, policy=policy)
        else:
            self._backend = None
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Persistent blobs that existed but failed envelope
        #: verification (corrupt, truncated, or wrong key/version).
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._memory)

    @property
    def path(self) -> Path | None:
        """Disk-tier directory, or None when the persistent tier is
        memory-only or non-directory (networked)."""
        return getattr(self._backend, "path", None)

    @property
    def backend(self):
        """The persistent-tier backend, or None when memory-only."""
        return self._backend

    # ------------------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        """The stage's artifacts, or None on a miss."""
        artifacts = self._memory.get(key)
        if artifacts is None and self._backend is not None:
            artifacts = self._read_persistent(key)
            if artifacts is not None:
                self._remember(key, artifacts)
        if artifacts is None:
            self.misses += 1
            return None
        self.hits += 1
        return artifacts

    def put(self, key: str, artifacts: dict[str, Any]) -> None:
        self._remember(key, artifacts)
        self.stores += 1
        if self._backend is not None:
            self._write_persistent(key, artifacts)

    def clear(self) -> None:
        self._memory.clear()

    # ------------------------------------------------------------------
    def _remember(self, key: str, artifacts: dict[str, Any]) -> None:
        while len(self._memory) >= self._max_entries:
            self._memory.pop(next(iter(self._memory)))
        self._memory[key] = artifacts

    # -- persistent tier: self-describing envelopes over a backend -----
    @staticmethod
    def _blob_name(key: str) -> str:
        # Flat names, no subdirectories: a cache directory is globbable
        # as `*.pkl` and any key collision is a content-hash collision.
        return f"{key}.pkl"

    @staticmethod
    def _header(key: str) -> bytes:
        return f"repro-stage {STAGE_BLOB_VERSION} {key}\n".encode()

    def _read_persistent(self, key: str) -> dict[str, Any] | None:
        blob = self._backend.read(self._blob_name(key))
        if blob is None:
            return None
        header = self._header(key)
        if not blob.startswith(header):
            # Legacy raw pickle, truncated blob, or an entry cross-wired
            # under the wrong name: a verified miss, never an error.
            self.rejected += 1
            return None
        try:
            artifacts = pickle.loads(blob[len(header):])
        except (pickle.PickleError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            self.rejected += 1
            return None
        if not isinstance(artifacts, dict):
            self.rejected += 1
            return None
        return artifacts

    def _write_persistent(self, key: str, artifacts: dict[str, Any]) -> None:
        try:
            payload = pickle.dumps(artifacts, pickle.HIGHEST_PROTOCOL)
        except (pickle.PickleError, TypeError, AttributeError):
            # Unpicklable artifact: stay memory-only rather than
            # failing the synthesis.
            return
        # Backend writes degrade silently on an unwritable/unreachable
        # tier (the StoreBackend contract) — same fail-safe as before.
        self._backend.write(self._blob_name(key), self._header(key) + payload)
