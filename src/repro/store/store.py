"""The content-addressed result archive: :class:`ResultStore`.

Every blob is a JSON **envelope**::

    {
      "format": 1,
      "key": {"kind": ..., "table": ..., "spec": ..., "workload": ...},
      "payload": { ... }
    }

and every read is verified: the blob must parse as JSON, carry the
supported format version, and its recorded key must equal the key the
caller asked for, **component by component**.  A truncated blob, a blob
written by an incompatible version, or a blob whose content belongs to a
different (table, spec, workload) — however it got under this digest —
is counted in :attr:`ResultStore.rejected` and reported as a miss, so a
poisoned or corrupted store can cost recomputation but can never return
a wrong result.  Writes are atomic (backend contract), and because keys
are content hashes, two writers racing on one key are writing identical
payloads — last rename wins with a complete, correct blob.

Payloads:

* ``synthesis`` — ``{"ok": true, "result": SynthesisResult.to_dict()}``
  or ``{"ok": false, "error": message}`` (a deterministic synthesis
  failure is a result too: a warm store short-circuits the re-raise
  exactly as it short-circuits success);
* ``validation`` — one campaign cell's
  :meth:`~repro.sim.monitors.ValidationSummary.to_dict`.

The stored ``result`` is the **full** ``to_dict()`` wire form, so a
store round-trip is byte-identical to serialising the live object
(pinned by ``tests/store/``); consumers that need run-independent bytes
project through :mod:`repro.store.canonical`.
"""

from __future__ import annotations

import json
import os

from ..core.result import SynthesisResult
from ..errors import ReproError
from ..flowtable.table import FlowTable
from ..pipeline.spec import PipelineSpec
from ..sim.monitors import ValidationSummary
from .backend import MemoryBackend, StoreBackend, resolve_backend
from .keys import (
    STORE_FORMAT_VERSION,
    StoreKey,
    synthesis_key,
)


class StoredSynthesis:
    """One synthesis outcome read back from the store.

    ``result`` is the rebuilt :class:`SynthesisResult` on success;
    ``error`` the recorded message of a deterministic failure (with
    ``error_type`` naming the original domain exception class, so a
    warm replay can re-raise the same type a cold run raised).  Exactly
    one of ``result``/``error`` is set.
    """

    __slots__ = ("result", "error", "error_type")

    def __init__(
        self,
        result: SynthesisResult | None,
        error: str | None,
        error_type: str | None = None,
    ):
        self.result = result
        self.error = error
        self.error_type = error_type

    @property
    def ok(self) -> bool:
        return self.error is None

    def raise_error(self) -> None:
        """Re-raise a stored failure as its original domain type.

        Falls back to :class:`~repro.errors.SynthesisError` when the
        recorded type is unknown (or blob predates the field) — only
        genuine :class:`~repro.errors.ReproError` subclasses are ever
        reconstructed, so a poisoned ``error_type`` cannot name an
        arbitrary exception class.
        """
        from .. import errors as errors_module
        from ..errors import ReproError, SynthesisError

        cls = getattr(errors_module, self.error_type or "", None)
        if not (
            isinstance(cls, type)
            and issubclass(cls, ReproError)
            and cls is not ReproError
        ):
            cls = SynthesisError
        raise cls(self.error)


def _encode(envelope: dict) -> bytes:
    # sort_keys + a fixed separator style: identical envelopes are
    # identical bytes, whichever process wrote them.
    return (json.dumps(envelope, indent=2, sort_keys=True) + "\n").encode()


class ResultStore:
    """Content-addressed archive of synthesis results and campaign cells.

    Construct with a directory path (the common CLI case), an explicit
    :class:`~repro.store.backend.StoreBackend`, or nothing for an
    in-memory store.  ``hits`` / ``misses`` / ``stores`` / ``rejected``
    expose effectiveness and fail-safety to benchmarks and tests.
    """

    def __init__(
        self,
        backend: StoreBackend | str | os.PathLike | None = None,
        policy=None,
    ):
        if backend is None:
            backend = MemoryBackend()
        elif not isinstance(backend, StoreBackend):
            # A location string: local directory, http(s):// object
            # store, or cache:// TTL cache (see resolve_backend).
            # ``policy`` tunes the transport of networked locations.
            backend = resolve_backend(backend, policy=policy)
        self.backend = backend
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Blobs that existed but failed envelope verification
        #: (truncated, wrong format version, or wrong-key content).
        self.rejected = 0

    # ------------------------------------------------------------------
    # Raw envelope layer
    # ------------------------------------------------------------------
    def get(self, key: StoreKey) -> dict | None:
        """The verified payload under ``key``, or None on a miss."""
        blob = self.backend.read(key.blob_name)
        if blob is None:
            self.misses += 1
            return None
        try:
            envelope = json.loads(blob.decode())
        except (ValueError, UnicodeDecodeError):
            # Truncated or otherwise corrupt: a miss, never an error.
            self.rejected += 1
            self.misses += 1
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("format") != STORE_FORMAT_VERSION
            or envelope.get("key") != key.to_dict()
            or "payload" not in envelope
        ):
            # Wrong version or content belonging to a different key:
            # poisoned blobs must cost recomputation, not correctness.
            self.rejected += 1
            self.misses += 1
            return None
        self.hits += 1
        return envelope["payload"]

    def put(self, key: StoreKey, payload: dict) -> None:
        envelope = {
            "format": STORE_FORMAT_VERSION,
            "key": key.to_dict(),
            "payload": payload,
        }
        self.backend.write(key.blob_name, _encode(envelope))
        self.stores += 1

    # ------------------------------------------------------------------
    # Synthesis results
    # ------------------------------------------------------------------
    def get_synthesis(
        self, table: FlowTable, spec: PipelineSpec
    ) -> StoredSynthesis | None:
        """The stored outcome of synthesising ``table`` under ``spec``.

        Returns None on a miss; a stored payload that does not rebuild
        into a :class:`SynthesisResult` (a corrupted-but-valid-JSON
        blob) is likewise rejected as a miss.
        """
        payload = self.get(synthesis_key(table, spec))
        if payload is None:
            return None
        try:
            if payload.get("ok"):
                return StoredSynthesis(
                    SynthesisResult.from_dict(payload["result"]), None
                )
            error_type = payload.get("error_type")
            return StoredSynthesis(
                None,
                str(payload["error"]),
                error_type=(
                    str(error_type) if error_type is not None else None
                ),
            )
        except (ReproError, KeyError, TypeError, ValueError):
            self.rejected += 1
            return None

    def put_synthesis(
        self,
        table: FlowTable,
        spec: PipelineSpec,
        result: SynthesisResult,
    ) -> None:
        self.put(
            synthesis_key(table, spec),
            {"ok": True, "result": result.to_dict()},
        )

    def put_synthesis_error(
        self,
        table: FlowTable,
        spec: PipelineSpec,
        error: str,
        error_type: str | None = None,
    ) -> None:
        payload = {"ok": False, "error": error}
        if error_type is not None:
            payload["error_type"] = error_type
        self.put(synthesis_key(table, spec), payload)

    # ------------------------------------------------------------------
    # Validation-campaign cells
    # ------------------------------------------------------------------
    def get_validation(self, key: StoreKey) -> ValidationSummary | None:
        payload = self.get(key)
        if payload is None:
            return None
        try:
            return ValidationSummary.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            self.rejected += 1
            return None

    def put_validation(
        self, key: StoreKey, summary: ValidationSummary
    ) -> None:
        self.put(key, summary.to_dict())

    # ------------------------------------------------------------------
    # Artifacts: debugging payloads filed next to a result's envelope
    # ------------------------------------------------------------------
    def artifact_name(self, key: StoreKey, suffix: str) -> str:
        """The blob name of ``key``'s ``suffix`` artifact — same kind/
        digest as the result envelope, different extension, so a cell's
        waveform sits next to its summary."""
        return f"{key.kind}/{key.digest}.{suffix}"

    def put_artifact(self, key: StoreKey, suffix: str, data: bytes) -> None:
        """Archive raw bytes (a VCD, a log) next to ``key``'s envelope.

        Artifacts are advisory debugging material, not results: they
        carry no envelope and are never read back into computation, so
        the verification story is unaffected.
        """
        self.backend.write(self.artifact_name(key, suffix), data)

    def get_artifact(self, key: StoreKey, suffix: str) -> bytes | None:
        return self.backend.read(self.artifact_name(key, suffix))

    # ------------------------------------------------------------------
    @property
    def path(self):
        """Disk directory when directory-backed, else None (so callers
        can re-open the store in worker processes)."""
        return getattr(self.backend, "path", None)

    @property
    def location(self) -> str | None:
        """A re-openable location string — the directory path or the
        backend URL — or None for in-memory/unaddressable backends.
        Worker processes re-open the store from this."""
        path = getattr(self.backend, "path", None)
        if path is not None:
            return str(path)
        return getattr(self.backend, "url", None)

    def describe(self) -> str:
        return (
            f"ResultStore({self.backend.describe()}: "
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores, {self.rejected} rejected)"
        )


def open_store(
    store: "ResultStore | StoreBackend | str | os.PathLike | None",
    policy=None,
) -> ResultStore | None:
    """Normalise the ``store=`` argument every runner accepts.

    None stays None (store disabled); an existing :class:`ResultStore`
    is passed through; anything else (path or backend) opens one —
    ``policy`` tunes the transport when the location is networked.
    """
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(store, policy=policy)
