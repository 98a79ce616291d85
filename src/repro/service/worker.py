"""The queue worker: claim, compute, publish, heartbeat, steal.

``seance work --store LOC --queue-id ID`` runs one of these against the
shared store.  The loop is deliberately boring:

1. scan the queue's undone units (heaviest first — LPT);
2. try to claim each in turn (fresh conditional put, or a *steal* when
   the holder's lease has lapsed);
3. execute the unit **through the store** — a synthesis unit routes
   through a store-backed :class:`~repro.pipeline.batch.BatchRunner`
   (so a unit another worker already finished is a verified hit, zero
   passes), a validation unit synthesises-or-reads its machine and
   simulates its cell, archiving the VCD when the cell is dirty;
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
    ) -> dict:
        """Work the queue; returns counters for the run.

        ``drain=True`` exits when every published unit is done (the
        batch-job shape: fleet finishes, everyone goes home);
        ``drain=False`` keeps polling for new units until ``timeout``
        (the service shape, behind ``seance serve``).
        """
        stats = {
            "worker": self.worker_id,
            "units": 0,
            "synthesized": 0,
            "validated": 0,
            "store_hits": 0,
            "skipped": 0,
            "failed": 0,
            "stolen": 0,
        }
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
                if max_units is not None and stats["units"] >= max_units:
                    return stats
                if self.queue.is_done(digest):
                    continue
                had_lease = self.queue.read_lease(digest) is not None
                if not self.queue.claim(digest, self.worker_id):
                    continue
                if had_lease:
                    stats["stolen"] += 1
                interval = self.queue.lease_ttl / 3.0
                with LeaseHeartbeat(
                    self.queue.leases, digest, self.worker_id, interval
                ):
                    outcome = self._execute(payload)
                self.queue.mark_done(digest, self.worker_id)
                self.queue.release(digest, self.worker_id)
                stats["units"] += 1
                stats[outcome] += 1
                progressed = True
            if max_units is not None and stats["units"] >= max_units:
                return stats
            if not progressed:
                if deadline is not None and time.monotonic() >= deadline:
                    return stats
                time.sleep(self.poll)

    # ------------------------------------------------------------------
    def _execute(self, payload: dict) -> str:
        """Run one unit; the outcome names the stats counter to bump.

        A malformed or poisoned unit counts as ``failed`` but is still
        marked done by the caller — retrying it forever would wedge the
        queue, and the store holds no result for it so a corrected
        republish recomputes cleanly.
        """
        try:
            if payload.get("kind") == "validation":
                return self._execute_validation(payload)
            return self._execute_synthesis(payload)
        except (ReproError, KeyError, TypeError, ValueError):
            return "failed"

    def _execute_synthesis(self, payload: dict) -> str:
        from ..core.serialize import table_from_dict
        from ..pipeline.batch import BatchRunner
        from ..pipeline.spec import PipelineSpec

        table = table_from_dict(payload["table"])
        spec = PipelineSpec.from_dict(payload["spec"])
        runner = BatchRunner(spec=spec, jobs=1, store=self.store)
        item = runner.run([table])[0]
        if item.store_hit:
            return "store_hits"
        if item.events:
            self.queue.record_telemetry(
                payload["key"]["table"],
                synthesis_seconds=item.seconds,
                passes={
                    event.name: event.seconds for event in item.events
                },
            )
        return "synthesized"

    def _execute_validation(self, payload: dict) -> str:
        from ..core.serialize import table_from_dict
        from ..netlist.fantom import build_fantom
        from ..pipeline.batch import BatchRunner
        from ..pipeline.spec import PipelineSpec
        from ..sim.campaign import (
            _resolve_engine,
            archive_failure_vcd,
            delay_model,
        )
        from ..sim.harness import random_legal_walk, validate_walk
        from ..store.keys import StoreKey

        table = table_from_dict(payload["table"])
        spec = PipelineSpec.from_dict(payload["spec"])
        cell = payload["cell"]
        stored = self.store.get_synthesis(table, spec)
        if stored is None:
            BatchRunner(spec=spec, jobs=1, store=self.store).run([table])
            stored = self.store.get_synthesis(table, spec)
        if stored is None or not stored.ok:
            # Synthesis failed (deterministically, and the store
            # recorded it): the cell is unrunnable, the merger reads
            # the recorded error instead.
            return "skipped"
        machine = build_fantom(stored.result, use_fsv=cell["use_fsv"])
        key = StoreKey(**payload["key"])
        if self.store.get_validation(key) is not None:
            return "store_hits"
        model, seed = cell["model"], cell["seed"]
        walk = random_legal_walk(
            machine.result.table, cell["steps"], seed=seed
        )
        start = time.perf_counter()
        summary = validate_walk(
            machine,
            walk,
            delays=delay_model(model, seed, machine),
            simulator_factory=_resolve_engine(cell["engine"]),
        )
        seconds = time.perf_counter() - start
        self.store.put_validation(key, summary)
        if not summary.all_clean:
            archive_failure_vcd(
                self.store, key, machine, walk, model, seed, cell["engine"]
            )
        self.queue.record_telemetry(
            payload["key"]["table"], cell_seconds=seconds
        )
        return "validated"
