"""The queue worker: claim, compute, publish, heartbeat, steal.

``seance work --store LOC --queue-id ID`` runs one of these against the
shared store.  The loop is deliberately boring:

1. scan the queue's undone units (heaviest first — LPT);
2. try to claim each in turn (fresh conditional put, or a *steal* when
   the holder's lease has lapsed);
3. rebuild the claimed :class:`~repro.store.sharding.WorkUnit` from its
   payload and run it through the one executor
   (:func:`~repro.store.sharding.execute_units`) — the same code path
   as ``seance shard run``, so a unit another worker already finished
   is a verified hit, and a failed synthesis counts as ``failed``;
4. mark done, release the lease, archive observed seconds as the
   telemetry the next publisher weighs units by.

A background thread heartbeats the held lease at a third of its TTL;
if the heartbeat discovers the lease was stolen (this process stalled
past expiry), the result is still safe to publish — identical bytes
under a content-addressed key — so the worker just finishes and moves
on.  Kill a worker mid-unit and its lease lapses; the next idle worker
steals the unit and recomputes it idempotently.  That crash-consistency
story is exactly the store's: duplicated work, never wrong results.
"""

from __future__ import annotations

import os
import socket
import time

from ..errors import ReproError
from ..store.sharding import UnitStats, WorkUnit, execute_units
from .leases import LeaseHeartbeat
from .queue import WorkQueue


class QueueWorker:
    """One draining worker over a :class:`~repro.service.queue.WorkQueue`.

    ``lease_ttl`` bounds crash recovery latency; ``poll`` is the idle
    re-scan interval (waiting for new units, or for another worker's
    lease to lapse).
    """

    def __init__(
        self,
        store,
        queue_id: str = "default",
        worker_id: str | None = None,
        lease_ttl: float = 30.0,
        poll: float = 0.5,
    ):
        self.queue = WorkQueue(store, queue_id, lease_ttl=lease_ttl)
        self.store = self.queue.store
        self.worker_id = worker_id or (
            f"{socket.gethostname()}-{os.getpid()}"
        )
        self.poll = poll

    # ------------------------------------------------------------------
    def run(
        self,
        max_units: int | None = None,
        drain: bool = True,
        timeout: float | None = None,
    ) -> UnitStats:
        """Work the queue; returns the run's executor counters.

        ``drain=True`` exits when every published unit is done (the
        batch-job shape: fleet finishes, everyone goes home);
        ``drain=False`` keeps polling for new units until ``timeout``
        (the service shape, behind ``seance serve``).
        """
        stats = UnitStats()
        # A local deadline: monotonic, unlike the cross-process leases.
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            pending = self.queue.pending()
            if not pending and drain:
                return stats
            progressed = False
            for digest, payload in pending:
                if max_units is not None and stats.units >= max_units:
                    return stats
                if self.queue.is_done(digest):
                    continue
                had_lease = self.queue.read_lease(digest) is not None
                if not self.queue.claim(digest, self.worker_id):
                    continue
                if had_lease:
                    stats.stolen += 1
                interval = self.queue.lease_ttl / 3.0
                with LeaseHeartbeat(
                    self.queue.leases, digest, self.worker_id, interval
                ):
                    stats.add(self._execute(digest, payload))
                self.queue.mark_done(digest, self.worker_id)
                self.queue.release(digest, self.worker_id)
                progressed = True
            if max_units is not None and stats.units >= max_units:
                return stats
            if not progressed:
                if deadline is not None and time.monotonic() >= deadline:
                    return stats
                time.sleep(self.poll)

    # ------------------------------------------------------------------
    def _execute(self, digest: str, payload: dict) -> UnitStats:
        """Run one unit through the executor and archive its telemetry.

        A malformed or poisoned unit counts as ``failed`` but is still
        marked done by the caller — retrying it forever would wedge the
        queue, and the store holds no result for it so a corrected
        republish recomputes cleanly.
        """
        try:
            unit = WorkUnit.from_payload(payload)
            stats = execute_units([unit], self.store)
        except (ReproError, KeyError, TypeError, ValueError) as error:
            label = str(payload.get("label", digest))
            return UnitStats(
                units=1, failed=1, failures={label: f"bad unit: {error}"}
            )
        if stats.passes or stats.validated:
            self.queue.record_telemetry(
                unit.key.table,
                synthesis_seconds=stats.synthesis_seconds or None,
                passes=stats.passes or None,
                cell_seconds=stats.cell_seconds or None,
            )
        return stats
