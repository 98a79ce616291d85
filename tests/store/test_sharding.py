"""Differential suite: any shard split merges byte-identically.

The acceptance property (ISSUE 5): for any shard count N — including
the degenerate N=1 and N greater than the number of work units — running
every shard of a batch matrix or campaign cell grid into a store and
merging reproduces the single-process
:class:`~repro.pipeline.batch.BatchRunner` /
:class:`~repro.sim.campaign.ValidationCampaign` stream **byte for
byte** (canonical projection: the deterministic stream minus wall-clock
telemetry).  The same plan drained through a work queue by two queue
workers — the executor's other filler — must merge to the same bytes
and report the same unit counters.  Hypothesis drives the shard count,
the split between the two workers and the workload choice; the
single-process baselines are computed once per workload and reused
across examples.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import benchmark
from repro.errors import StoreError
from repro.flowtable.table import Entry, FlowTable
from repro.pipeline.batch import BatchRunner
from repro.pipeline.options import SynthesisOptions
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
    shard_of,
)
from repro.store.sharding import UnitStats, WorkUnit

#: Batch workloads: (name, table names, option sets or None).
BATCH_WORKLOADS = {
    "plain": (("lion", "traffic", "hazard_demo"), None),
    "matrix": (
        ("lion", "traffic"),
        (SynthesisOptions(), SynthesisOptions(hazard_correction=False)),
    ),
    "single": (("hazard_demo",), None),
    "broken": (("lion", "broken", "traffic"), None),
}

#: Campaign workloads: (table names, models, sweep, steps).
CAMPAIGN_WORKLOADS = {
    "two-model": (("lion", "hazard_demo"), ("unit", "loop-safe"), 2, 5),
    "corner": (("traffic",), ("corner",), 3, 5),
    "broken": (("hazard_demo", "broken"), ("unit",), 2, 5),
}

_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def broken_table():
    """Fails pipeline validation (not strongly connected)."""
    return FlowTable(
        inputs=["x"],
        outputs=["z"],
        states=["a", "b"],
        entries={
            ("a", 0): Entry("a", (0,)),
            ("b", 1): Entry("b", (1,)),
        },
        reset_state="a",
        name="broken",
    )


def _table(name):
    return broken_table() if name == "broken" else benchmark(name)


def _drain_through_queue(units, first_worker_units):
    """Fill a fresh store from a published plan with two queue workers
    (the first stops after ``first_worker_units``); returns the store
    and the workers' summed counters."""
    store = ResultStore()
    WorkQueue(store, "q").publish(units)
    stats = QueueWorker(store, "q", worker_id="w1").run(
        max_units=first_worker_units
    )
    stats.add(QueueWorker(store, "q", worker_id="w2").run())
    return store, stats


def _counters(stats):
    return (
        stats.units, stats.synthesized, stats.validated, stats.store_hits,
        stats.failed, stats.failures,
    )


@pytest.fixture(scope="module")
def batch_baselines():
    """Single-process canonical streams, one per workload."""
    baselines = {}
    for key, (names, options_list) in BATCH_WORKLOADS.items():
        tables = [_table(name) for name in names]
        runner = BatchRunner()
        items = (
            runner.run_matrix(tables, options_list)
            if options_list is not None
            else runner.run(tables)
        )
        baselines[key] = canonical_json(canonical_batch_payload(items))
    return baselines


@pytest.fixture(scope="module")
def campaign_baselines():
    baselines = {}
    for key, (names, models, sweep, steps) in CAMPAIGN_WORKLOADS.items():
        campaign = ValidationCampaign(
            sweep=sweep, steps=steps, delay_models=models
        )
        report = campaign.run([_table(name) for name in names])
        baselines[key] = canonical_json(canonical_campaign_payload(report))
    return baselines


def _sharded_batch(workload):
    names, options_list = BATCH_WORKLOADS[workload]
    return ShardedBatch(
        [_table(name) for name in names], options_list=options_list
    )


def _sharded_campaign(workload):
    names, models, sweep, steps = CAMPAIGN_WORKLOADS[workload]
    campaign = ValidationCampaign(
        sweep=sweep, steps=steps, delay_models=models
    )
    return ShardedCampaign([_table(name) for name in names], campaign)


# ----------------------------------------------------------------------
# The differential property
# ----------------------------------------------------------------------
class TestBatchDifferential:
    @_SETTINGS
    @given(
        shards=st.integers(min_value=1, max_value=40),
        workload=st.sampled_from(sorted(BATCH_WORKLOADS)),
        first_worker_units=st.integers(min_value=0, max_value=6),
    )
    def test_any_split_merges_byte_identically(
        self, shards, workload, first_worker_units, batch_baselines
    ):
        sharded = _sharded_batch(workload)
        store = ResultStore()
        shard_stats = UnitStats()
        for shard in range(shards):
            shard_stats.add(sharded.run_shard(shard, shards, store))
        merged = canonical_json(
            canonical_batch_payload(sharded.merge(store, shards))
        )
        assert merged == batch_baselines[workload]

        queued, queue_stats = _drain_through_queue(
            sharded.units, first_worker_units
        )
        drained = canonical_json(
            canonical_batch_payload(sharded.merge(queued))
        )
        assert drained == batch_baselines[workload]
        assert _counters(queue_stats) == _counters(shard_stats)

    def test_degenerate_single_shard(self, batch_baselines):
        sharded = _sharded_batch("plain")
        store = ResultStore()
        sharded.run_shard(0, 1, store)
        merged = canonical_json(
            canonical_batch_payload(sharded.merge(store))
        )
        assert merged == batch_baselines["plain"]

    def test_more_shards_than_units(self, batch_baselines):
        sharded = _sharded_batch("single")  # 1 unit
        store = ResultStore()
        for shard in range(16):
            sharded.run_shard(shard, 16, store)
        merged = canonical_json(
            canonical_batch_payload(sharded.merge(store, 16))
        )
        assert merged == batch_baselines["single"]

    def test_failed_synthesis_merges_in_place(self):
        tables = [benchmark("lion"), broken_table(), benchmark("traffic")]
        single = canonical_json(
            canonical_batch_payload(BatchRunner().run(tables))
        )
        sharded = ShardedBatch(tables)
        store = ResultStore()
        for shard in range(3):
            sharded.run_shard(shard, 3, store)
        merged = canonical_json(
            canonical_batch_payload(sharded.merge(store, 3))
        )
        assert merged == single
        assert json.loads(merged)[1]["ok"] is False


class TestCampaignDifferential:
    @_SETTINGS
    @given(
        shards=st.integers(min_value=1, max_value=40),
        workload=st.sampled_from(sorted(CAMPAIGN_WORKLOADS)),
        first_worker_units=st.integers(min_value=0, max_value=6),
    )
    def test_any_split_merges_byte_identically(
        self, shards, workload, first_worker_units, campaign_baselines
    ):
        sharded = _sharded_campaign(workload)
        store = ResultStore()
        shard_stats = UnitStats()
        for shard in range(shards):
            shard_stats.add(sharded.run_shard(shard, shards, store))
        merged = canonical_json(
            canonical_campaign_payload(sharded.merge(store, shards))
        )
        assert merged == campaign_baselines[workload]

        queued, queue_stats = _drain_through_queue(
            sharded.units, first_worker_units
        )
        drained = canonical_json(
            canonical_campaign_payload(sharded.merge(queued))
        )
        assert drained == campaign_baselines[workload]
        assert _counters(queue_stats) == _counters(shard_stats)

    def test_more_shards_than_cells(self, campaign_baselines):
        sharded = _sharded_campaign("corner")  # 3 cells
        store = ResultStore()
        for shard in range(11):
            sharded.run_shard(shard, 11, store)
        merged = canonical_json(
            canonical_campaign_payload(sharded.merge(store, 11))
        )
        assert merged == campaign_baselines["corner"]

    def test_synthesis_failure_rebuilds_error_stream(self):
        tables = [benchmark("hazard_demo"), broken_table()]
        campaign = ValidationCampaign(
            sweep=1, steps=5, delay_models=("unit",)
        )
        single = canonical_json(
            canonical_campaign_payload(campaign.run(tables))
        )
        sharded = ShardedCampaign(
            tables,
            ValidationCampaign(sweep=1, steps=5, delay_models=("unit",)),
        )
        store = ResultStore()
        for shard in range(2):
            sharded.run_shard(shard, 2, store)
        merged = canonical_json(
            canonical_campaign_payload(sharded.merge(store, 2))
        )
        assert merged == single
        assert json.loads(merged)["errors"][0][0] == "broken"


# ----------------------------------------------------------------------
# Plan properties
# ----------------------------------------------------------------------
class TestPlan:
    @_SETTINGS
    @given(shards=st.integers(min_value=1, max_value=100))
    def test_shards_partition_the_units(self, shards):
        plan = _sharded_batch("plain").plan(shards)
        seen = []
        for shard in range(shards):
            seen.extend(unit.index for unit in plan.shard_units(shard))
        assert sorted(seen) == [unit.index for unit in plan.units]
        assert sum(plan.counts()) == len(plan.units)

    def test_assignment_is_input_order_independent(self):
        tables = [benchmark(n) for n in ("lion", "traffic", "hazard_demo")]
        forward = ShardedBatch(tables).plan(4)
        backward = ShardedBatch(list(reversed(tables))).plan(4)
        by_key = {
            unit.key.digest: shard_of(unit.key, 4)
            for unit in forward.units
        }
        for unit in backward.units:
            assert shard_of(unit.key, 4) == by_key[unit.key.digest]

    def test_campaign_plan_covers_the_grid(self):
        sharded = _sharded_campaign("two-model")
        plan = sharded.plan(3)
        # 2 tables x 2 models x 2 seeds
        assert len(plan.units) == 8
        assert len({unit.key.digest for unit in plan.units}) == 8

    def test_units_round_trip_through_the_queue_payload(self):
        planners = (_sharded_batch("matrix"), _sharded_campaign("corner"))
        for sharded in planners:
            for unit in sharded.units:
                payload = json.loads(json.dumps(unit.to_payload()))
                rebuilt = WorkUnit.from_payload(payload)
                assert rebuilt.key == unit.key
                assert rebuilt.to_payload() == payload

    def test_bad_shard_arguments_rejected(self):
        sharded = _sharded_batch("single")
        with pytest.raises(StoreError):
            sharded.plan(0)
        with pytest.raises(StoreError):
            sharded.plan(2).shard_units(2)


# ----------------------------------------------------------------------
# Merge failure modes
# ----------------------------------------------------------------------
class TestMergeFailures:
    def test_missing_units_name_the_owning_shard(self):
        sharded = _sharded_batch("plain")
        store = ResultStore()
        sharded.run_shard(0, 2, store)  # shard 1 never ran
        with pytest.raises(StoreError) as err:
            sharded.merge(store, 2)
        message = str(err.value)
        assert "missing" in message
        assert "shard 1/2" in message

    def test_missing_campaign_cells_reported(self):
        sharded = _sharded_campaign("two-model")
        store = ResultStore()
        sharded.run_shard(0, 3, store)
        with pytest.raises(StoreError) as err:
            sharded.merge(store, 3)
        assert "seance shard run" in str(err.value)
