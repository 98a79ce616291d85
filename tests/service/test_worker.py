"""Queue workers: drain, steal from the crashed, survive poison.

The acceptance property from the issue: a worker killed mid-lease
loses nothing — its units lapse and a surviving worker completes them,
and because execution is idempotent through the content-addressed
store, the merged result stream is byte-identical to a single-process
run no matter how the fleet carved the work up.
"""

import json

import pytest

from repro.bench import benchmark
from repro.pipeline.batch import BatchRunner
from repro.pipeline.spec import PipelineSpec
from repro.service import QueueWorker, WorkQueue
from repro.sim.campaign import ValidationCampaign
from repro.store import (
    ResultStore,
    ShardedBatch,
    ShardedCampaign,
    canonical_batch_payload,
    canonical_campaign_payload,
    canonical_json,
)
from repro.store.backend import MemoryBackend
from tests.store.test_sharding import broken_table

TABLES = ("lion", "traffic", "hazard_demo")


@pytest.fixture
def store():
    return ResultStore(MemoryBackend())


def tables():
    return [benchmark(name) for name in TABLES]


class TestDrain:
    def test_worker_drains_batch_into_the_store(self, store):
        WorkQueue(store, "q").publish(
            ShardedBatch(tables(), spec=PipelineSpec()).units
        )
        stats = QueueWorker(store, "q", worker_id="w1").run()
        assert stats["units"] == len(TABLES)
        assert stats["synthesized"] == len(TABLES)
        assert stats["failed"] == 0
        queue_stats = WorkQueue(store, "q").stats()
        assert queue_stats.remaining == 0

    def test_drained_store_merges_byte_identical(self, store):
        """Queue drain and single-process batch: same bytes."""
        spec = PipelineSpec()
        WorkQueue(store, "q").publish(
            ShardedBatch(tables(), spec=spec).units
        )
        QueueWorker(store, "q", worker_id="w1").run()
        merged = ShardedBatch(tables(), spec=spec).merge(store)
        direct = BatchRunner(spec=spec, jobs=1).run(tables())
        assert canonical_json(
            canonical_batch_payload(merged)
        ) == canonical_json(canonical_batch_payload(direct))

    def test_second_worker_finds_nothing_to_recompute(self, store):
        WorkQueue(store, "q").publish(
            ShardedBatch(tables(), spec=PipelineSpec()).units
        )
        QueueWorker(store, "q", worker_id="w1").run()
        stats = QueueWorker(store, "q", worker_id="w2").run()
        assert stats["units"] == 0 and stats["synthesized"] == 0

    def test_telemetry_archived_for_future_lpt_ordering(self, store):
        queue = WorkQueue(store, "q")
        queue.publish(ShardedBatch(tables(), spec=PipelineSpec()).units)
        QueueWorker(store, "q", worker_id="w1").run()
        weights = [
            json.loads(store.backend.read(name))
            for name in store.backend.names("telemetry/")
        ]
        assert len(weights) == len(TABLES)
        assert all(
            record["synthesis_seconds"] > 0 for record in weights
        )


class TestSteal:
    def test_surviving_worker_completes_a_crashed_workers_units(
        self, store
    ):
        """Satellite pin: worker A claims a unit and 'crashes' (never
        heartbeats, never finishes).  After the lease TTL lapses,
        worker B must steal it and complete the whole queue."""
        spec = PipelineSpec()
        queue = WorkQueue(store, "q", lease_ttl=0.2)
        queue.publish(ShardedBatch(tables(), spec=spec).units)

        # Worker A: claim the heaviest pending unit, then die silently.
        (victim_digest, _), *_ = queue.pending()
        assert queue.claim(victim_digest, "crashed-worker", ttl=0.2)

        # Worker B drains; it must wait out the lapse and steal.
        stats = QueueWorker(
            store, "q", worker_id="survivor", lease_ttl=0.2, poll=0.05
        ).run(timeout=30)
        assert stats["stolen"] >= 1
        assert WorkQueue(store, "q").stats().remaining == 0

        # The stolen unit's result is whole and byte-identical.
        merged = ShardedBatch(tables(), spec=spec).merge(store)
        direct = BatchRunner(spec=spec, jobs=1).run(tables())
        assert canonical_json(
            canonical_batch_payload(merged)
        ) == canonical_json(canonical_batch_payload(direct))

    def test_live_lease_is_not_stolen(self, store):
        """A unit whose lease is still beating is skipped, not raced."""
        queue = WorkQueue(store, "q", lease_ttl=60.0)
        queue.publish(
            ShardedBatch([benchmark("lion")], spec=PipelineSpec()).units
        )
        [(digest, _)] = queue.pending()
        queue.claim(digest, "alive", ttl=60.0)
        stats = QueueWorker(
            store, "q", worker_id="w2", poll=0.05
        ).run(timeout=0.5)
        assert stats["units"] == 0
        assert queue.read_lease(digest)["worker"] == "alive"


class TestPoison:
    def test_malformed_unit_fails_without_wedging_the_queue(self, store):
        """A unit blob that decodes but can't execute is counted failed
        and marked done — the rest of the queue still drains."""
        queue = WorkQueue(store, "q")
        queue.publish(ShardedBatch(tables(), spec=PipelineSpec()).units)
        (digest, unit), *_ = queue.pending()
        unit.pop("table")  # now unexecutable
        store.backend.write(
            f"queue/q/unit/{digest}.json",
            json.dumps(unit).encode(),
        )
        stats = QueueWorker(store, "q", worker_id="w1").run(timeout=30)
        assert stats["failed"] == 1
        assert stats["synthesized"] == len(TABLES) - 1
        assert WorkQueue(store, "q").stats().remaining == 0


class TestFailedSynthesis:
    """A unit whose table fails synthesis counts and names the failure
    exactly as ``seance shard run`` does (the same executor)."""

    def test_batch_unit_counts_failed(self, store):
        sharded = ShardedBatch([benchmark("lion"), broken_table()])
        WorkQueue(store, "q").publish(sharded.units)
        stats = QueueWorker(store, "q", worker_id="w1").run()
        assert stats["units"] == 2
        assert (stats["synthesized"], stats["failed"]) == (1, 1)
        assert list(stats.failures) == ["broken"]
        shard = sharded.run_shard(0, 1, ResultStore(MemoryBackend()))
        assert shard.failures == stats.failures
        assert (shard.synthesized, shard.failed) == (1, 1)

    def test_campaign_cell_counts_failed(self, store):
        campaign = ValidationCampaign(
            sweep=1, steps=5, delay_models=("unit",)
        )
        sharded = ShardedCampaign(
            [benchmark("hazard_demo"), broken_table()], campaign
        )
        WorkQueue(store, "q").publish(sharded.units)
        stats = QueueWorker(store, "q", worker_id="w1").run()
        assert (stats["validated"], stats["failed"]) == (1, 1)
        assert list(stats.failures) == ["broken"]
        assert "broken: FAILED" in stats.describe()


class TestCampaignUnits:
    def test_worker_executes_validation_cells(self, store):
        campaign = ValidationCampaign(
            sweep=1, steps=5, delay_models=("unit",), base_seed=0
        )
        machines = [benchmark("lion")]
        queue = WorkQueue(store, "q")
        published = queue.publish(
            ShardedCampaign(machines, campaign).units
        )
        # One unit per cell; the synthesis it needs is resolved
        # worker-side through the store.
        assert published == 1
        stats = QueueWorker(store, "q", worker_id="w1").run(timeout=60)
        assert stats["failed"] == 0
        assert stats["validated"] == 1

        merged = ShardedCampaign(machines, campaign).merge(store)
        direct = ValidationCampaign(
            sweep=1, steps=5, delay_models=("unit",), base_seed=0
        ).run(machines)
        assert canonical_json(
            canonical_campaign_payload(merged)
        ) == canonical_json(canonical_campaign_payload(direct))
