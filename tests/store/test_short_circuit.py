"""Warm-store short-circuits: zero synthesis passes, zero simulation.

Acceptance pin (ISSUE 5): a repeat run against a warm store performs
**zero synthesis passes**, asserted through the
:class:`~repro.pipeline.manager.PassEvent` telemetry — not through
timing, which could hide a fast re-run.
"""

import json

import pytest

from repro import api
from repro.bench import benchmark
from repro.errors import SynthesisError
from repro.pipeline.batch import BatchRunner
from repro.sim.campaign import ValidationCampaign
from repro.store import ResultStore


NAMES = ("lion", "traffic", "hazard_demo")


class TestBatchShortCircuit:
    def test_warm_batch_runs_zero_passes(self):
        store = ResultStore()
        tables = [benchmark(name) for name in NAMES]
        cold = BatchRunner(store=store).run(tables)
        assert all(not item.store_hit for item in cold)
        assert all(item.events for item in cold)  # passes really ran
        warm = BatchRunner(store=store).run(tables)
        assert all(item.store_hit for item in warm)
        # The telemetry contract: not one PassEvent on the warm run.
        assert all(item.events == () for item in warm)

    def test_different_tables_share_nothing(self):
        store = ResultStore()
        BatchRunner(store=store).run([benchmark("lion")])
        [item] = BatchRunner(store=store).run([benchmark("traffic")])
        assert not item.store_hit
        assert len(item.events) == 7

    def test_stored_failure_short_circuits_too(self):
        from tests.store.test_sharding import broken_table

        store = ResultStore()
        cold = BatchRunner(store=store).run([broken_table()])
        assert not cold[0].ok and not cold[0].store_hit
        warm = BatchRunner(store=store).run([broken_table()])
        assert not warm[0].ok and warm[0].store_hit
        assert warm[0].error == cold[0].error

    def test_cold_and_warm_results_byte_identical(self):
        store = ResultStore()
        table = benchmark("train11")
        cold = BatchRunner(store=store).run([table])[0]
        warm = BatchRunner(store=store).run([table])[0]
        assert json.dumps(
            warm.result.to_dict(), sort_keys=True
        ) == json.dumps(cold.result.to_dict(), sort_keys=True)


class TestSessionShortCircuit:
    def test_warm_session_report_has_no_events(self):
        store = ResultStore()
        session = api.load("lion", store=store)
        _, cold_report = session.run_with_report()
        assert not cold_report.store_hit and cold_report.events
        result, warm_report = session.run_with_report()
        assert warm_report.store_hit
        assert warm_report.events == []
        assert result.table1_row() == ("lion", 3, 5, 9)

    def test_warm_session_result_keeps_every_stage_key(self):
        store = ResultStore()
        session = api.load("lion", store=store)
        cold = session.run()
        warm, report = session.run_with_report()
        assert report.store_hit
        # The stored wire form carries the cold run's stage timings.
        assert warm.stage_seconds == cold.stage_seconds
        assert sorted(warm.stage_seconds) == sorted((
            "validate", "reduce", "assign", "outputs",
            "hazards", "fsv", "factor",
        ))

    def test_store_respects_spec_changes(self):
        store = ResultStore()
        session = api.load("lion", store=store)
        session.run()
        ablated, report = session.with_options(
            hazard_correction=False
        ).run_with_report()
        # Different spec fingerprint: a genuine run, not a stale hit.
        assert not report.store_hit
        assert ablated.fsv.expr.to_string() == "0"

    def test_stored_failure_reraises_original_domain_type(self):
        """Warm and cold runs of the same bad input raise the *same*
        exception type — the stored envelope records the class name."""
        from tests.store.test_sharding import broken_table

        store = ResultStore()
        session = api.Session(broken_table(), store=store)
        with pytest.raises(Exception) as cold:
            session.run()  # cold run: store is empty, pipeline raises
        BatchRunner(store=store).run([broken_table()])
        with pytest.raises(Exception) as warm:
            session.run()  # warm run: replayed from the stored failure
        assert type(warm.value) is type(cold.value)
        assert str(warm.value) == str(cold.value)

    def test_session_stores_its_own_failure(self, monkeypatch):
        """A cold Session failure is recorded like a batch failure, so
        a second Session over the store re-raises without synthesising."""
        from repro.errors import FlowTableError
        from repro.pipeline.manager import PassManager
        from repro.pipeline.spec import PipelineSpec
        from tests.store.test_sharding import broken_table

        store = ResultStore()
        with pytest.raises(FlowTableError):
            api.Session(broken_table(), PipelineSpec(), store=store).run()
        stored = store.get_synthesis(broken_table(), PipelineSpec())
        assert stored is not None and stored.error_type == "FlowTableError"

        def no_passes(*args, **kwargs):
            raise AssertionError("a stored failure must not re-synthesise")

        monkeypatch.setattr(PassManager, "run_with_report", no_passes)
        with pytest.raises(FlowTableError):
            api.Session(broken_table(), PipelineSpec(), store=store).run()

    def test_unknown_stored_error_type_falls_back_safely(self):
        """A poisoned/legacy error_type must not name arbitrary
        classes; it degrades to SynthesisError."""
        from repro.pipeline.spec import PipelineSpec
        from repro.store import synthesis_key

        store = ResultStore()
        table = benchmark("lion")
        store.put(
            synthesis_key(table, PipelineSpec()),
            {"ok": False, "error": "boom", "error_type": "SystemExit"},
        )
        with pytest.raises(SynthesisError):
            api.Session(table, store=store).run()

    def test_with_store_builder_attaches_directory(self, tmp_path):
        session = api.load("lion").with_store(tmp_path / "s")
        session.run()
        _, report = session.run_with_report()
        assert report.store_hit


class TestCampaignShortCircuit:
    def campaign(self, store):
        return ValidationCampaign(
            sweep=2,
            steps=6,
            delay_models=("unit", "loop-safe"),
            store=store,
        )

    def test_warm_campaign_replays_every_cell(self):
        store = ResultStore()
        tables = [benchmark("lion"), benchmark("hazard_demo")]
        cold = self.campaign(store).run(tables)
        assert cold.store_hits == 0
        warm = self.campaign(store).run(tables)
        assert warm.store_hits == len(warm.cells) == 8
        assert [c.summary.cycles for c in warm.cells] == [
            c.summary.cycles for c in cold.cells
        ]

    def test_parallel_campaign_fills_a_directory_store(self, tmp_path):
        """A campaign over a directory store writes every cell; a rerun
        through a freshly opened store then replays them all."""
        tables = [benchmark("lion"), benchmark("hazard_demo")]
        store_dir = tmp_path / "store"
        cold = ValidationCampaign(
            sweep=2, steps=6, delay_models=("unit", "loop-safe"),
            store=store_dir,
        ).run(tables)
        assert cold.store_hits == 0
        warm = self.campaign(ResultStore(store_dir)).run(tables)
        assert warm.store_hits == len(warm.cells) == 8
        assert [c.summary.cycles for c in warm.cells] == [
            c.summary.cycles for c in cold.cells
        ]

    def test_session_validate_uses_the_store(self):
        store = ResultStore()
        session = api.load("traffic", store=store)
        first = session.validate(
            sweep=2, steps=6, delay_models=("unit",)
        )
        assert first.store_hits == 0
        again = session.validate(
            sweep=2, steps=6, delay_models=("unit",)
        )
        assert again.store_hits == len(again.cells)
        # A different workload shape is a different key set.
        wider = session.validate(
            sweep=2, steps=7, delay_models=("unit",)
        )
        assert wider.store_hits == 0

    def test_unprotected_machines_keyed_separately(self):
        store = ResultStore()
        session = api.load("hazard_demo", store=store)
        protected = session.validate(
            sweep=1, steps=6, delay_models=("unit",)
        )
        unprotected = session.validate(
            sweep=1, steps=6, delay_models=("unit",), use_fsv=False
        )
        assert protected.store_hits == 0
        assert unprotected.store_hits == 0  # no cross-key pollution

    def test_storeless_campaign_does_no_store_io(self, monkeypatch):
        """Without a store a campaign never touches one, and its result
        equals the same campaign over a fresh store, cold and warm."""
        from repro.store import canonical_campaign_payload, canonical_json
        from tests.store.test_sharding import broken_table

        def no_io(*args, **kwargs):
            raise AssertionError("a storeless campaign did store I/O")

        for name in ("get_validation", "put_validation",
                     "get_synthesis", "put_synthesis"):
            monkeypatch.setattr(ResultStore, name, no_io)
        tables = [benchmark("hazard_demo"), broken_table(),
                  benchmark("traffic")]
        storeless = self.campaign(None).run(tables)
        monkeypatch.undo()

        store = ResultStore()
        cold = self.campaign(store).run(tables)
        warm = self.campaign(store).run(tables)
        assert warm.store_hits == len(warm.cells) == 8
        assert storeless.errors and storeless.store_hits == 0
        expected = canonical_json(canonical_campaign_payload(storeless))
        for report in (cold, warm):
            assert canonical_json(
                canonical_campaign_payload(report)
            ) == expected

    def test_session_cells_are_hits_for_a_planned_campaign(self):
        """The `verify`/Session path and the planned path key cells
        the same way: on the source table (test_example reduces to 3
        states), not the reduced one."""
        store = ResultStore()
        shape = dict(sweep=2, steps=6, delay_models=("unit", "corner"))
        session = api.load("test_example", store=store).validate(
            use_fsv=False, **shape
        )
        assert session.store_hits == 0
        planned = ValidationCampaign(
            use_fsv=False, store=store, **shape
        ).run([benchmark("test_example")])
        assert planned.store_hits == len(planned.cells) == 4
        assert [c.summary.cycles for c in planned.cells] == [
            c.summary.cycles for c in session.cells
        ]

    @pytest.mark.parametrize("with_store", [False, True])
    def test_session_validate_raises_the_synthesis_error(self, with_store):
        from repro.errors import FlowTableError
        from tests.store.test_sharding import broken_table

        store = ResultStore() if with_store else None
        for _ in range(2):  # with a store, the second run replays it
            with pytest.raises(FlowTableError):
                api.Session(broken_table(), store=store).validate(
                    sweep=1, steps=6, delay_models=("unit",)
                )
