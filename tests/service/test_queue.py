"""The durable work-stealing queue: leases, heartbeats, LPT ordering.

The queue is blobs in the store, so every property here holds across
processes and machines for free; MemoryBackend keeps the tests fast.
The load-bearing invariants: a lease is an atomic conditional put, a
lapsed lease is stealable, publishing is idempotent, and claim order
follows archived telemetry weights (longest processing time first).
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.bench import benchmark
from repro.pipeline.spec import PipelineSpec
from repro.service import QueueWorker, WorkQueue
from repro.store import ResultStore, ShardedBatch
from repro.store.backend import MemoryBackend
from repro.store.keys import synthesis_key, table_digest
from tests.strategies import cached_synthesize

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
        store.put_synthesis(table, spec, cached_synthesize(table))
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
        store.put_synthesis(lion, spec, cached_synthesize(lion))
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
        assert queue.claim(digest, "doomed", ttl=0.05) is True
        assert queue.claim(digest, "thief") is False  # still live
        time.sleep(0.1)
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
        queue.claim(digest, "doomed", ttl=0.05)
        time.sleep(0.1)
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
        queue.claim(digest, "doomed", ttl=0.05)
        time.sleep(0.1)
        [row] = queue.lease_report()
        assert row["lapsed"] is True
        assert row["expires_in"] <= 0.0


def _claim_and_hang(store_path, digest):
    """Child-process body: take the lease, then never heartbeat again
    (the parent SIGKILLs us mid-hold)."""
    queue = WorkQueue(ResultStore(store_path), "q", lease_ttl=1.0)
    queue.claim(digest, f"victim-{os.getpid()}")
    time.sleep(600)


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

        victim = multiprocessing.get_context("fork").Process(
            target=_claim_and_hang, args=(store_path, digest)
        )
        victim.start()
        try:
            deadline = time.monotonic() + 10
            while queue.read_lease(digest) is None:
                assert time.monotonic() < deadline, "victim never claimed"
                time.sleep(0.02)
            os.kill(victim.pid, signal.SIGKILL)
        finally:
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
