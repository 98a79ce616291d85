"""Store lifecycle operations: offline verification and eviction.

A fleet-scale store accumulates three kinds of debris: blobs corrupted
in flight or at rest (the verification layer already *tolerates* them —
these sweeps *find* them), results nobody will ask for again, and queue
scaffolding (leases, done markers) from finished campaigns.  Two
offline sweeps, behind ``seance store verify`` and ``seance store gc``:

:func:`verify_store`
    Re-checks every result envelope the way a read would — parse,
    format version, recorded-key-equals-filed-digest — without needing
    the original tables or specs: the envelope's recorded key must
    rebuild to exactly the digest the blob is filed under, which is the
    same component-by-component guarantee
    :meth:`~repro.store.store.ResultStore.get` enforces online.
    Reports (not deletes) rejected blobs; pass the report to ``gc`` to
    act on it.

:func:`gc_store`
    Age-based eviction (``max_age_seconds`` against backend ``stat``
    mtimes), orphan-artifact collection (a ``.vcd`` whose envelope is
    gone), queue-scaffolding cleanup for drained queues, and optional
    deletion of blobs a verify sweep rejected.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from ..errors import StoreError
from .keys import STORE_FORMAT_VERSION, StoreKey
from .store import ResultStore, open_store

#: Blob-name prefixes holding result envelopes (verifiable JSON).
RESULT_KINDS = ("synthesis", "validation")


@dataclass
class VerifyReport:
    """Outcome of one offline envelope sweep.

    ``transport`` carries the backend's retry/breaker telemetry
    snapshot when the store is networked (None on local backends), so
    a verify run over a flaky link reports how many operations faulted
    and retried instead of degrading silently.
    """

    checked: int = 0
    ok: int = 0
    rejected: list[tuple[str, str]] = field(default_factory=list)
    artifacts: int = 0
    other: int = 0
    transport: dict | None = None

    @property
    def clean(self) -> bool:
        return not self.rejected

    def describe(self) -> str:
        lines = [
            f"verified {self.checked} envelope(s): {self.ok} ok, "
            f"{len(self.rejected)} rejected "
            f"({self.artifacts} artifact(s), {self.other} other "
            f"blob(s) skipped)"
        ]
        for name, reason in self.rejected[:20]:
            lines.append(f"  REJECTED {name}: {reason}")
        if len(self.rejected) > 20:
            lines.append(f"  ... and {len(self.rejected) - 20} more")
        if self.transport is not None:
            lines.append(
                f"transport: {self.transport['ops']} op(s), "
                f"{self.transport['faults']} fault(s), "
                f"{self.transport['retries']} retried, "
                f"{self.transport['short_circuits']} short-circuited, "
                f"breaker "
                f"{self.transport.get('breaker', {}).get('state', '?')}"
            )
        return "\n".join(lines)


def _check_envelope(name: str, blob: bytes) -> str | None:
    """Why this result blob would be rejected online, or None if sound."""
    try:
        envelope = json.loads(blob.decode())
    except (ValueError, UnicodeDecodeError):
        return "not valid JSON (truncated or corrupt)"
    if not isinstance(envelope, dict):
        return "envelope is not an object"
    if envelope.get("format") != STORE_FORMAT_VERSION:
        return (
            f"format version {envelope.get('format')!r} "
            f"!= {STORE_FORMAT_VERSION}"
        )
    if "payload" not in envelope:
        return "no payload"
    recorded = envelope.get("key")
    if not isinstance(recorded, dict):
        return "no recorded key"
    try:
        key = StoreKey(**recorded)
    except TypeError:
        return "recorded key has wrong shape"
    if key.blob_name != name:
        return (
            f"recorded key rebuilds to {key.blob_name}, "
            f"but blob is filed as {name}"
        )
    return None


def verify_store(store) -> VerifyReport:
    """Sweep every result envelope offline (see module docstring)."""
    resolved = open_store(store)
    backend = resolved.backend
    report = VerifyReport()
    for kind in RESULT_KINDS:
        for name in backend.names(f"{kind}/"):
            if not name.endswith(".json"):
                report.artifacts += 1
                continue
            report.checked += 1
            blob = backend.read(name)
            if blob is None:
                report.rejected.append((name, "listed but unreadable"))
                continue
            reason = _check_envelope(name, blob)
            if reason is None:
                report.ok += 1
            else:
                report.rejected.append((name, reason))
    from ..service.resilience import transport_snapshot

    report.transport = transport_snapshot(backend)
    return report


@dataclass
class GcReport:
    """Outcome of one eviction sweep."""

    scanned: int = 0
    deleted: int = 0
    aged_out: int = 0
    orphans: int = 0
    rejected_dropped: int = 0
    queue_blobs: int = 0
    undeletable: int = 0

    def describe(self) -> str:
        return (
            f"gc: scanned {self.scanned}, deleted {self.deleted} "
            f"({self.aged_out} aged out, {self.orphans} orphaned "
            f"artifact(s), {self.rejected_dropped} rejected, "
            f"{self.queue_blobs} queue blob(s)"
            + (
                f"; {self.undeletable} undeletable"
                if self.undeletable
                else ""
            )
            + ")"
        )


def gc_store(
    store,
    max_age_seconds: float | None = None,
    drop_rejected: bool = False,
    drained_queues: bool = True,
    now: float | None = None,
) -> GcReport:
    """Evict store debris (see the module docstring).

    ``max_age_seconds`` ages out result envelopes *and* their artifacts
    by backend mtime; backends without ``stat`` simply never age
    anything out.  ``drop_rejected`` deletes what a fresh verify sweep
    rejects.  ``drained_queues`` removes unit/lease/done scaffolding of
    queues whose every unit is done.  A negative or NaN
    ``max_age_seconds`` raises :class:`~repro.errors.StoreError` before
    anything is deleted: a sign typo must not age out every result.
    """
    if max_age_seconds is not None and not max_age_seconds >= 0:
        raise StoreError(
            f"max age must be >= 0 seconds, got {max_age_seconds}"
        )
    resolved: ResultStore = open_store(store)
    backend = resolved.backend
    report = GcReport()
    now = time.time() if now is None else now

    rejected_names = set()
    if drop_rejected:
        rejected_names = {
            name for name, _reason in verify_store(resolved).rejected
        }

    def _delete(name: str, counter: str) -> None:
        if backend.delete(name):
            report.deleted += 1
            setattr(report, counter, getattr(report, counter) + 1)
        else:
            report.undeletable += 1

    # Pass 1: result kinds — age-out, rejected, orphaned artifacts.
    for kind in RESULT_KINDS:
        envelopes = set()
        artifacts = []
        for name in backend.names(f"{kind}/"):
            report.scanned += 1
            if name.endswith(".json"):
                envelopes.add(name)
            else:
                artifacts.append(name)
        for name in sorted(envelopes):
            if name in rejected_names:
                _delete(name, "rejected_dropped")
                continue
            if max_age_seconds is not None:
                stat = backend.stat(name)
                if (
                    stat is not None
                    and now - stat.mtime > max_age_seconds
                ):
                    _delete(name, "aged_out")
                    envelopes.discard(name)
        for name in sorted(artifacts):
            stem = name.rsplit(".", 1)[0]
            if f"{stem}.json" not in envelopes or (
                backend.read(f"{stem}.json") is None
            ):
                _delete(name, "orphans")
                continue
            if max_age_seconds is not None:
                stat = backend.stat(name)
                if (
                    stat is not None
                    and now - stat.mtime > max_age_seconds
                ):
                    _delete(name, "aged_out")

    # Pass 2: drained-queue scaffolding.
    if drained_queues:
        queues: dict[str, dict[str, set[str]]] = {}
        for name in backend.names("queue/"):
            report.scanned += 1
            parts = name.split("/")
            if len(parts) != 4:
                continue
            _, qid, role, stem = parts
            queues.setdefault(qid, {}).setdefault(role, set()).add(stem)
        for qid, roles in queues.items():
            units = roles.get("unit", set())
            done = roles.get("done", set())
            if units and units <= done:
                for role, stems in roles.items():
                    for stem in sorted(stems):
                        _delete(f"queue/{qid}/{role}/{stem}", "queue_blobs")
    return report
