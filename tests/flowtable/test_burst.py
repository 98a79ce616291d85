"""Tests for the burst-mode front end."""

import pytest

from repro.errors import SpecificationError
from repro.flowtable.burst import BurstSpec, BurstTransition
from repro.flowtable.validation import validate


def dme_like_spec():
    """A small burst-mode controller: request/grant with a done burst.

    idle --(req+)--> granted --(done+, req-)--> clearing --(done-)--> idle
    The two-edge burst is the multiple-input change under test.
    """
    spec = BurstSpec(
        inputs=["req", "done"],
        outputs=["grant"],
        initial_state="idle",
        initial_inputs={"req": 0, "done": 0},
    )
    spec.state("idle", "0")
    spec.state("granted", "1")
    spec.state("clearing", "0")
    spec.burst("idle", "granted", ["req+"])
    spec.burst("granted", "clearing", ["done+", "req-"])
    spec.burst("clearing", "idle", ["done-"])
    return spec


class TestBurstTransition:
    def test_empty_burst_rejected(self):
        with pytest.raises(SpecificationError):
            BurstTransition("a", "b", frozenset())

    def test_bad_edge_rejected(self):
        with pytest.raises(SpecificationError):
            BurstTransition("a", "b", frozenset({"req"}))

    def test_double_signal_rejected(self):
        with pytest.raises(SpecificationError):
            BurstTransition("a", "b", frozenset({"req+", "req-"}))

    def test_signals(self):
        t = BurstTransition("a", "b", frozenset({"req+", "done-"}))
        assert t.signals == frozenset({"req", "done"})


class TestSpecConstruction:
    def test_undeclared_state_rejected(self):
        spec = BurstSpec(["a"], ["z"], "s0", {"a": 0})
        with pytest.raises(SpecificationError):
            spec.burst("s0", "ghost", ["a+"])

    def test_unknown_signal_rejected(self):
        spec = BurstSpec(["a"], ["z"], "s0", {"a": 0})
        spec.state("s1")
        with pytest.raises(SpecificationError):
            spec.burst("s0", "s1", ["b+"])

    def test_missing_initial_input(self):
        with pytest.raises(SpecificationError):
            BurstSpec(["a", "b"], ["z"], "s0", {"a": 0})


class TestEntryVectors:
    def test_propagation(self):
        vectors = dme_like_spec().entry_vectors()
        assert vectors["idle"] == {"req": 0, "done": 0}
        assert vectors["granted"] == {"req": 1, "done": 0}
        assert vectors["clearing"] == {"req": 0, "done": 1}

    def test_wrong_polarity_detected(self):
        spec = BurstSpec(["a"], ["z"], "s0", {"a": 1})
        spec.state("s1")
        spec.burst("s0", "s1", ["a+"])  # a is already 1
        with pytest.raises(SpecificationError):
            spec.entry_vectors()

    def test_conflicting_entry_detected(self):
        spec = BurstSpec(["a", "b"], ["z"], "s0", {"a": 0, "b": 0})
        spec.state("s1")
        spec.burst("s0", "s1", ["a+"])
        spec.burst("s0", "s1", ["b+"])
        with pytest.raises(SpecificationError):
            spec.entry_vectors()

    def test_unreachable_state_detected(self):
        spec = BurstSpec(["a"], ["z"], "s0", {"a": 0})
        spec.state("island")
        with pytest.raises(SpecificationError):
            spec.entry_vectors()


class TestMaximalSetProperty:
    def test_subset_bursts_rejected(self):
        spec = BurstSpec(
            ["a", "b"], ["z"], "s0", {"a": 0, "b": 0}
        )
        spec.state("s1").state("s2")
        spec.burst("s0", "s1", ["a+"])
        spec.burst("s0", "s2", ["a+", "b+"])  # superset of the first
        with pytest.raises(SpecificationError) as err:
            spec.check_maximal_set_property()
        assert "maximal set" in str(err.value)

    def test_disjoint_bursts_allowed(self):
        spec = BurstSpec(
            ["a", "b"], ["z"], "s0", {"a": 0, "b": 0}
        )
        spec.state("s1").state("s2")
        spec.burst("s0", "s1", ["a+"])
        spec.burst("s0", "s2", ["b+"])
        spec.check_maximal_set_property()  # no exception


class TestToFlowTable:
    def test_valid_normal_mode_table(self):
        table = dme_like_spec().to_flow_table(name="dme")
        validate(table)  # normal mode, strongly connected, restable

    def test_partial_bursts_hold(self):
        table = dme_like_spec().to_flow_table()
        # granted's burst is {done+, req-} from vector (req=1, done=0):
        # the two partial columns must be stable holds.
        col_done_only = table.column_of({"req": 1, "done": 1})
        col_req_only = table.column_of({"req": 0, "done": 0})
        assert table.is_stable("granted", col_done_only)
        assert table.is_stable("granted", col_req_only)

    def test_complete_burst_moves(self):
        table = dme_like_spec().to_flow_table()
        col_complete = table.column_of({"req": 0, "done": 1})
        assert table.next_state("granted", col_complete) == "clearing"

    def test_outputs_held_during_partials(self):
        table = dme_like_spec().to_flow_table()
        col_done_only = table.column_of({"req": 1, "done": 1})
        assert table.output_vector("granted", col_done_only) == (1,)

    def test_burst_tables_have_mic_transitions(self):
        table = dme_like_spec().to_flow_table()
        assert list(table.transitions(min_input_distance=2))


class TestEndToEnd:
    def test_synthesise_and_simulate(self):
        from repro.api import synthesize
        from repro.netlist.fantom import build_fantom
        from repro.sim.delays import skewed_random
        from repro.sim.harness import validate_against_reference

        table = dme_like_spec().to_flow_table(name="dme")
        result = synthesize(table)
        # the two-edge burst guarantees hazard analysis has work to do
        assert result.analysis.has_hazards
        machine = build_fantom(result)
        summary = validate_against_reference(
            machine, steps=15, seeds=(0, 1), delays_factory=skewed_random
        )
        assert summary.all_clean, summary.describe()
