"""Store-backed lease tables: the fabric's only coordination primitive.

A lease is a small JSON blob under ``<prefix>/<key>.json`` claimed with
the backend's conditional put (``O_CREAT|O_EXCL`` on a directory,
``If-None-Match: *`` on the object store), renewed by heartbeat, and
**stolen** once it lapses: delete the stale blob, conditional-put ours,
then read back and verify the stored lease names us.  The
work-stealing queue's unit claims are leases of this table.

The payload::

    {"worker": ..., "claimed": ..., "expires": ..., "beats": N,
     "steals": N}

``beats`` counts heartbeat renewals; ``steals`` survives takeovers (a
stolen lease carries its predecessor's count plus one), so ``seance
queue status --watch`` can show how contested each unit has been.

**Correctness never rests on a lease.**  The steal path is racy by
construction — two stealers can both briefly believe they won, clocks
across a fleet skew, and a network fault can lose a claim's response
(the transport's precondition replay in :mod:`repro.store.net` closes
that last hole).  What makes all of it safe is that the guarded work is
idempotent: results live in the content-addressed store, and two owners
computing one key write byte-identical blobs.  A lost or double-granted
lease costs duplicated work, never a wrong result — which is also why
every helper here degrades (returns False / None) instead of raising
when the store is unreachable.
"""

from __future__ import annotations

import json
import threading
import time

from ..errors import StoreError


def _encode(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _decode(blob: bytes | None) -> dict | None:
    if blob is None:
        return None
    try:
        payload = json.loads(blob.decode())
    except (ValueError, UnicodeDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


class LeaseTable:
    """Keyed leases under one blob prefix (see the module docstring).

    ``backend`` is any :class:`~repro.store.backend.StoreBackend`;
    ``prefix`` the namespace (``queue/<qid>/lease`` for unit claims);
    ``ttl`` the default claim lifetime — owners heartbeat at a fraction
    of it, so it bounds how long a crashed owner's keys stay stuck.  A
    ``ttl`` that is not ``> 0`` raises :class:`~repro.errors.StoreError`:
    every claim would be written already expired, free for any peer to
    steal.
    """

    def __init__(self, backend, prefix: str, ttl: float = 30.0):
        if not float(ttl) > 0:
            raise StoreError(f"lease TTL must be > 0 seconds, got {ttl}")
        self.backend = backend
        self.prefix = prefix.rstrip("/") + "/"
        self.ttl = float(ttl)

    def _name(self, key: str) -> str:
        return f"{self.prefix}{key}.json"

    def _payload(self, owner: str, ttl: float, steals: int = 0) -> dict:
        now = time.time()
        return {
            "worker": owner,
            "claimed": round(now, 6),
            "expires": round(now + ttl, 6),
            "beats": 0,
            "steals": steals,
        }

    # ------------------------------------------------------------------
    def read(self, key: str) -> dict | None:
        """The current lease payload, or None (absent, unreadable, or
        store unreachable — callers must treat all three alike)."""
        return _decode(self.backend.read(self._name(key)))

    def claim(self, key: str, owner: str, ttl: float | None = None) -> bool:
        """Try to lease ``key``; True when ``owner`` now holds it.

        Fresh keys are claimed with one conditional put.  A key whose
        lease has *lapsed* (crashed owner) is stolen: delete the stale
        lease, conditional-put ours (``steals`` bumped past the
        victim's), then read back and verify the stored lease names us
        — the verification closes most of the delete/recreate race
        window, and idempotent execution makes the rest harmless.
        """
        ttl = self.ttl if ttl is None else ttl
        name = self._name(key)
        if self.backend.write_if_absent(
            name, _encode(self._payload(owner, ttl))
        ):
            return self._verify(key, owner)
        existing = self.read(key)
        if existing is not None and time.time() < float(
            existing.get("expires", 0)
        ):
            return False  # live lease held by someone else
        # Stale (or corrupt) lease: steal it, carrying the steal count.
        steals = 0
        if existing is not None:
            try:
                steals = int(existing.get("steals", 0)) + 1
            except (TypeError, ValueError):
                steals = 1
        self.backend.delete(name)
        if self.backend.write_if_absent(
            name, _encode(self._payload(owner, ttl, steals=steals))
        ):
            return self._verify(key, owner)
        return False

    def _verify(self, key: str, owner: str) -> bool:
        lease = self.read(key)
        return lease is not None and lease.get("worker") == owner

    def heartbeat(
        self, key: str, owner: str, ttl: float | None = None
    ) -> bool:
        """Extend a held lease; False when it is no longer ours (stolen
        after a stall) — the owner should stop renewing."""
        ttl = self.ttl if ttl is None else ttl
        lease = self.read(key)
        if lease is None or lease.get("worker") != owner:
            return False
        lease["expires"] = round(time.time() + ttl, 6)
        lease["beats"] = int(lease.get("beats", 0)) + 1
        self.backend.write(self._name(key), _encode(lease))
        return True

    def release(self, key: str, owner: str) -> None:
        """Drop our lease; a lease someone else now holds is left alone."""
        lease = self.read(key)
        if lease is not None and lease.get("worker") == owner:
            self.backend.delete(self._name(key))

    # ------------------------------------------------------------------
    def scan(self) -> list[tuple[str, dict | None]]:
        """Every (key, payload) under the prefix, sorted by key; a
        payload of None marks an unreadable/corrupt lease blob."""
        entries = []
        for name in sorted(self.backend.names(self.prefix)):
            stem = name[len(self.prefix):]
            if stem.endswith(".json"):
                stem = stem[: -len(".json")]
            entries.append((stem, _decode(self.backend.read(name))))
        return entries

    def report(self) -> list[dict]:
        """One row per lease for status displays: key, worker, age,
        seconds to expiry (negative = lapsed), beats, steals."""
        now = time.time()
        rows = []
        for key, lease in self.scan():
            if lease is None:
                rows.append(
                    {"key": key, "worker": "?", "age": 0.0,
                     "expires_in": 0.0, "beats": 0, "steals": 0,
                     "lapsed": True}
                )
                continue
            try:
                claimed = float(lease.get("claimed", now))
                expires = float(lease.get("expires", 0))
            except (TypeError, ValueError):
                claimed, expires = now, 0.0
            rows.append(
                {
                    "key": key,
                    "worker": str(lease.get("worker", "?")),
                    "age": round(max(now - claimed, 0.0), 3),
                    "expires_in": round(expires - now, 3),
                    "beats": int(lease.get("beats", 0) or 0),
                    "steals": int(lease.get("steals", 0) or 0),
                    "lapsed": now >= expires,
                }
            )
        return rows


class LeaseHeartbeat:
    """Renews one held lease from a daemon thread until stopped.

    ``lost`` flips when a renewal discovers the lease was stolen (this
    process stalled past expiry); the owner keeps computing — the work
    is idempotent — but stops renewing a lease that is no longer its.
    Use as a context manager around the guarded computation.
    """

    def __init__(
        self, table: LeaseTable, key: str, owner: str, interval: float
    ):
        self._table = table
        self._key = key
        self._owner = owner
        self._interval = max(interval, 0.05)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.lost = False

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            if not self._table.heartbeat(self._key, self._owner):
                self.lost = True
                return

    def __enter__(self) -> LeaseHeartbeat:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
