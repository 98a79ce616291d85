"""The durable work-stealing queue: leases, heartbeats, LPT ordering.

The queue is blobs in the store, so every property here holds across
processes and machines for free; MemoryBackend keeps the tests fast.
The load-bearing invariants: a lease is an atomic conditional put, a
lapsed lease is stealable, publishing is idempotent, and claim order
follows archived telemetry weights (longest processing time first).
"""

import json
import multiprocessing
import os
import signal
import threading

import pytest

from repro.bench import benchmark
from repro.pipeline import PassManager
from repro.pipeline.spec import PipelineSpec
from repro.errors import StoreError
from repro.service import QueueWorker, WorkQueue
from repro.service.leases import LeaseTable
from repro.store import ResultStore, ShardedBatch
from repro.store.backend import MemoryBackend
from repro.store.keys import synthesis_key, table_digest

TABLES = ("lion", "traffic", "hazard_demo")


@pytest.fixture
def store():
    return ResultStore(MemoryBackend())


@pytest.fixture
def queue(store):
    return WorkQueue(store, "q", lease_ttl=30.0)


def publish(queue, names=TABLES):
    return queue.publish(
        ShardedBatch(
            [benchmark(name) for name in names], spec=PipelineSpec()
        ).units
    )


def lapse(queue, digest):
    """Backdate a held lease by one TTL and a second, through the
    backend: exactly what a crashed holder leaves behind once its TTL
    has passed — without the test waiting on the wall clock."""
    lease = queue.read_lease(digest)
    for stamp in ("claimed", "expires"):
        lease[stamp] -= queue.lease_ttl + 1.0
    queue.backend.write(
        f"{queue.leases.prefix}{digest}.json", json.dumps(lease).encode()
    )


class TestPublish:
    def test_one_unit_per_table(self, queue):
        assert publish(queue) == len(TABLES)
        assert queue.stats().units == len(TABLES)

    def test_republish_is_idempotent(self, queue):
        publish(queue)
        assert publish(queue) == 0
        assert queue.stats().units == len(TABLES)

    def test_already_stored_units_publish_as_done(self, store, queue):
        table = benchmark("lion")
        spec = PipelineSpec()
        store.put_synthesis(table, spec, PassManager().run(table))
        queue.publish(ShardedBatch([table], spec=spec).units)
        stats = queue.stats()
        # No unit scaffolding is written for warm work — just the done
        # marker, so the queue reads as drained immediately.
        assert stats.units == 0 and stats.done == 1
        assert queue.pending() == []

    def test_warm_done_markers_do_not_count_against_pending_units(
        self, store, queue
    ):
        """Regression: a unit published as already stored leaves a done
        marker with no unit blob; it must not make a still-pending
        unit read as finished (``--watch`` declaring "drained")."""
        lion, traffic = benchmark("lion"), benchmark("traffic")
        spec = PipelineSpec()
        store.put_synthesis(lion, spec, PassManager().run(lion))
        queue.publish(ShardedBatch([lion, traffic], spec=spec).units)
        stats = queue.stats()
        assert (stats.units, stats.done, stats.remaining) == (1, 1, 1)
        assert "1 remaining" in stats.describe()
        [(digest, _)] = queue.pending()
        queue.mark_done(digest, "w1")
        assert queue.stats().remaining == 0

    def test_corrupt_result_is_published_not_marked_done(
        self, store, queue
    ):
        """A result blob that fails verification is not a result: the
        unit is queued, and the status never goes negative."""
        lion = benchmark("lion")
        spec = PipelineSpec()
        store.backend.write(synthesis_key(lion, spec).blob_name, b"corrupt")
        assert queue.publish(ShardedBatch([lion], spec=spec).units) == 1
        stats = queue.stats()
        assert (stats.units, stats.done, stats.remaining) == (1, 0, 1)

    def test_units_are_self_describing(self, queue):
        publish(queue, ("lion",))
        [(digest, unit)] = queue.pending()
        assert unit["digest"] == digest
        assert unit["kind"] == "synthesis"
        assert unit["label"] == "lion"
        assert set(unit["key"]) >= {"kind", "table", "spec", "workload"}
        assert "table" in unit and "spec" in unit


class TestLeases:
    @pytest.mark.parametrize("ttl", [0.0, -5.0, float("nan")])
    def test_non_positive_ttl_is_rejected(self, store, ttl):
        # An already-expired claim is free for any peer to steal.
        with pytest.raises(StoreError, match="lease TTL"):
            WorkQueue(store, "q", lease_ttl=ttl)
        with pytest.raises(StoreError, match="lease TTL"):
            LeaseTable(store.backend, "inflight", ttl=ttl)

    def test_claim_is_exclusive(self, queue):
        publish(queue, ("lion",))
        [(digest, _)] = queue.pending()
        assert queue.claim(digest, "alice") is True
        assert queue.claim(digest, "bob") is False

    def test_release_reopens_the_unit(self, queue):
        publish(queue, ("lion",))
        [(digest, _)] = queue.pending()
        queue.claim(digest, "alice")
        queue.release(digest, "alice")
        assert queue.claim(digest, "bob") is True

    def test_heartbeat_extends_only_the_owner(self, queue):
        publish(queue, ("lion",))
        [(digest, _)] = queue.pending()
        queue.claim(digest, "alice")
        assert queue.heartbeat(digest, "alice") is True
        assert queue.heartbeat(digest, "bob") is False

    def test_lapsed_lease_is_stealable(self, queue):
        """A worker that stops heartbeating is presumed crashed; its
        unit must become claimable by anyone after the TTL."""
        publish(queue, ("lion",))
        [(digest, _)] = queue.pending()
        assert queue.claim(digest, "doomed") is True
        assert queue.claim(digest, "thief") is False  # still live
        lapse(queue, digest)
        assert queue.stats().expired == 1
        assert queue.claim(digest, "thief") is True  # stolen
        assert queue.heartbeat(digest, "doomed") is False

    def test_done_units_leave_pending(self, queue):
        publish(queue)
        digests = [digest for digest, _ in queue.pending()]
        queue.mark_done(digests[0], "alice")
        assert queue.is_done(digests[0])
        assert digests[0] not in [d for d, _ in queue.pending()]
        assert queue.stats().done == 1

    def test_steal_bumps_the_steal_counter(self, queue):
        publish(queue, ("lion",))
        [(digest, _)] = queue.pending()
        queue.claim(digest, "doomed")
        lapse(queue, digest)
        queue.claim(digest, "thief")
        lease = queue.read_lease(digest)
        assert lease["worker"] == "thief"
        assert lease["steals"] == 1

    def test_heartbeat_counts_beats(self, queue):
        publish(queue, ("lion",))
        [(digest, _)] = queue.pending()
        queue.claim(digest, "alice")
        queue.heartbeat(digest, "alice")
        queue.heartbeat(digest, "alice")
        assert queue.read_lease(digest)["beats"] == 2

    def test_lease_report_rows(self, queue):
        publish(queue, ("lion", "traffic"))
        digests = [digest for digest, _ in queue.pending()]
        queue.claim(digests[0], "alice")
        rows = queue.lease_report()
        assert len(rows) == 1
        [row] = rows
        assert row["digest"] == digests[0]
        assert row["worker"] == "alice"
        assert row["age"] >= 0.0
        assert row["expires_in"] > 0.0
        assert row["beats"] == 0
        assert row["steals"] == 0
        assert row["lapsed"] is False

    def test_lease_report_flags_lapsed_rows(self, queue):
        publish(queue, ("lion",))
        [(digest, _)] = queue.pending()
        queue.claim(digest, "doomed")
        lapse(queue, digest)
        [row] = queue.lease_report()
        assert row["lapsed"] is True
        assert row["expires_in"] <= 0.0


def _claim_and_hang(store_path, digest, claimed):
    """Child-process body: take the lease, say so, then never heartbeat
    again (the parent SIGKILLs us mid-hold)."""
    queue = WorkQueue(ResultStore(store_path), "q", lease_ttl=1.0)
    queue.claim(digest, f"victim-{os.getpid()}")
    claimed.set()
    signal.pause()


class TestSigkillSteal:
    def test_sigkilled_holder_is_stolen_and_unit_completes(
        self, tmp_path
    ):
        """Regression for the crash-recovery acceptance property: a
        process SIGKILLed while holding a lease (no release, no
        heartbeat, no atexit) loses the unit to a surviving worker
        after the TTL, and the unit still completes exactly once."""
        store_path = tmp_path / "store"
        queue = WorkQueue(
            ResultStore(store_path), "q", lease_ttl=1.0
        )
        queue.publish(
            ShardedBatch([benchmark("lion")], spec=PipelineSpec()).units
        )
        [(digest, _)] = queue.pending()

        context = multiprocessing.get_context("fork")
        claimed = context.Event()
        victim = context.Process(
            target=_claim_and_hang, args=(store_path, digest, claimed)
        )
        victim.start()
        try:
            assert claimed.wait(timeout=10), "victim never claimed"
        finally:
            victim.kill()  # SIGKILL: no release, no heartbeat, no atexit
            victim.join(timeout=10)

        # The orphaned lease still names the corpse.
        assert queue.read_lease(digest)["worker"].startswith("victim-")
        stats = QueueWorker(
            store_path, "q", worker_id="survivor",
            lease_ttl=1.0, poll=0.05,
        ).run()
        assert stats["units"] == 1
        assert stats["synthesized"] == 1
        assert stats["stolen"] == 1
        assert queue.is_done(digest)
        assert queue.stats().remaining == 0


class TestFleetDedup:
    """Two publishers and two workers racing over one store: the queue
    alone makes the fleet pay one synthesis per unit."""

    @staticmethod
    def race(body):
        """Run ``body(slot)`` on two threads released together."""
        barrier = threading.Barrier(2)
        results = [None, None]

        def run(slot):
            barrier.wait()
            results[slot] = body(slot)

        threads = [
            threading.Thread(target=run, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results

    def test_racing_publishers_and_workers_pay_one_synthesis(
        self, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        units = ShardedBatch(
            [benchmark(name) for name in TABLES], spec=PipelineSpec()
        ).units

        published = self.race(
            lambda slot: WorkQueue(store, "q").publish(units)
        )
        assert sum(published) == len(units)

        drained = self.race(
            lambda slot: QueueWorker(
                store, "q", worker_id=f"w{slot}", poll=0.01
            ).run(timeout=60)
        )
        assert sum(stats.synthesized for stats in drained) == len(units)
        for stats in drained:
            assert stats.failed == 0
            assert stats.units == stats.synthesized + stats.store_hits
        assert WorkQueue(store, "q").stats().remaining == 0


class TestPublishCounts:
    def test_torn_conditional_put_does_not_count_a_rivals_unit(self):
        """Racing publishers write the same units.  When B's conditional
        put meets A's blob and its response tears, the retry sees 412
        and reads the blob back: it must read as A's, not B's own."""
        from repro.service.fakes import FakeObjectStoreServer
        from repro.service.resilience import RetryPolicy
        from repro.store.net import ObjectStoreBackend

        policy = RetryPolicy(
            retries=8, timeout=5.0, backoff_base=0.01, backoff_max=0.05,
            breaker_threshold=1000,
        )
        units = ShardedBatch(
            [benchmark(name) for name in TABLES], spec=PipelineSpec()
        ).units
        with FakeObjectStoreServer() as server:
            first = WorkQueue(
                ResultStore(ObjectStoreBackend(server.url, policy=policy)),
                "q",
            ).publish(units)

            torn = ObjectStoreBackend(server.url, policy=policy)
            conditional_put = torn.write_if_absent

            def tear_each_response(name, data):
                server.fail_next(1, mode="truncate")
                return conditional_put(name, data)

            torn.write_if_absent = tear_each_response
            second = WorkQueue(ResultStore(torn), "q").publish(units)
            assert torn.telemetry.faults >= len(units)
        assert first + second == len(units)


class TestWeights:
    def test_pending_is_lpt_ordered_by_telemetry(self, queue):
        """Archived per-table synthesis seconds decide claim order:
        heaviest first, so stragglers start earliest."""
        seconds = {"lion": 0.1, "traffic": 9.0, "hazard_demo": 1.0}
        for name, weight in seconds.items():
            queue.record_telemetry(
                table_digest(benchmark(name)), synthesis_seconds=weight
            )
        publish(queue)
        ordered = [unit["label"] for _, unit in queue.pending()]
        assert ordered == ["traffic", "hazard_demo", "lion"]

    def test_unknown_telemetry_defaults_to_unit_weight(self, queue):
        assert queue.telemetry_weight(
            table_digest(benchmark("lion")), "synthesis"
        ) == pytest.approx(1.0)

    def test_telemetry_round_trip(self, queue):
        digest = table_digest(benchmark("lion"))
        queue.record_telemetry(
            digest,
            synthesis_seconds=2.5,
            passes={"reduce": 1.5, "assign": 1.0},
        )
        assert queue.telemetry_weight(digest, "synthesis") == (
            pytest.approx(2.5)
        )
