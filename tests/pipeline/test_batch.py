"""BatchRunner: ordered deterministic streams, matrices, conveniences."""

import pytest

from repro.bench import benchmark, benchmark_names, synthesize_suite
from repro.errors import SynthesisError
from repro.flowtable.table import Entry, FlowTable
from repro.pipeline import BatchRunner, SynthesisOptions

NAMES = ("lion", "traffic", "hazard_demo", "test_example")


def stripped(result):
    d = result.to_dict()
    d.pop("stage_seconds")
    return d


def invalid_table():
    """A table that fails pipeline validation (not strongly connected).

    Built through the raw constructor — the builder front end would
    reject it eagerly, but the pipeline's validate pass must also catch
    tables arriving from other front ends.
    """
    return FlowTable(
        inputs=["x"],
        outputs=["z"],
        states=["a", "b"],
        entries={
            ("a", 0): Entry("a", (0,)),
            ("b", 1): Entry("b", (1,)),  # unreachable from a
        },
        reset_state="a",
        name="broken",
    )


class TestSerial:
    def test_results_in_input_order(self):
        tables = [benchmark(name) for name in NAMES]
        items = BatchRunner(jobs=1).run(tables)
        assert [item.name for item in items] == list(NAMES)
        assert [item.index for item in items] == list(range(len(NAMES)))
        assert all(item.ok for item in items)

    def test_failure_does_not_abort_the_batch(self):
        tables = [benchmark("lion"), invalid_table(), benchmark("traffic")]
        items = BatchRunner(jobs=1).run(tables)
        assert [item.ok for item in items] == [True, False, True]
        assert items[1].result is None
        assert items[1].error


class TestParallel:
    """There is no batch pool: scale-out is `shard run` / `work`."""

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            BatchRunner(jobs=0)

    def test_parallel_jobs_point_to_shard_run(self):
        with pytest.raises(ValueError, match="shard run") as raised:
            BatchRunner(jobs=2)
        assert "seance work" in str(raised.value)


class TestMatrix:
    def test_matrix_is_option_major_and_complete(self):
        tables = [benchmark("lion"), benchmark("traffic")]
        options = [
            SynthesisOptions(),
            SynthesisOptions(hazard_correction=False),
        ]
        items = BatchRunner(jobs=1).run_matrix(tables, options)
        assert [i.name for i in items] == ["lion", "traffic"] * 2
        assert all(item.ok for item in items)
        # the ablated half really used its options: fsv is constant 0
        assert items[2].result.fsv.expr.to_string() == "0"
        assert items[0].result.fsv.expr.to_string() != "0"


class TestConveniences:
    def test_api_batch_one_shot(self):
        from repro import api

        items = api.batch([benchmark("lion")])
        assert len(items) == 1 and items[0].ok

    def test_synthesize_suite_defaults_to_every_benchmark(self):
        results = synthesize_suite()
        assert tuple(results) == benchmark_names()

    def test_synthesize_suite_raises_on_failure(self):
        # monkey-free: feed a bogus name through the names parameter
        with pytest.raises(KeyError):
            synthesize_suite(names=("no_such_machine",))

    def test_synthesize_suite_matches_direct_synthesis(self):
        from repro.api import synthesize

        results = synthesize_suite(names=("lion",))
        assert stripped(results["lion"]) == stripped(
            synthesize(benchmark("lion"))
        )
