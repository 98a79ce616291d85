"""End-to-end property test: random table -> synthesis -> gates -> oracle.

The complete claim of the paper, checked on machines nobody hand-tuned:
for any normal-mode, strongly connected flow table, the synthesised
FANTOM machine — actual gates under randomized delays — settles in the
states and produces the outputs the flow table specifies, for random
legal input walks including multiple-input changes.

Kept intentionally small per example (hypothesis runs many examples);
the benchmark suite covers the big machines and hostile delays.
"""

from hypothesis import HealthCheck, assume, given, settings

from repro.api import synthesize
from repro.flowtable.validation import (
    check_normal_mode,
    check_stability,
    check_strongly_connected,
)
from repro.netlist.fantom import build_fantom
from repro.sim.delays import loop_safe_random
from repro.sim.harness import FantomHarness, random_legal_walk
from repro.sim.reference import FlowTableInterpreter

from .strategies import normal_mode_tables

END_TO_END_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.filter_too_much,
        HealthCheck.data_too_large,
    ],
)


@given(normal_mode_tables(max_states=3, max_inputs=2, allow_unspecified=False))
@END_TO_END_SETTINGS
def test_fantom_machines_match_their_flow_tables(table):
    assume(not check_strongly_connected(table))
    assume(not check_stability(table))
    assert not check_normal_mode(table)  # guaranteed by the strategy

    result = synthesize(table)
    machine = build_fantom(result)
    harness = FantomHarness(machine, delays=loop_safe_random(seed=1))
    # Compare against the *reduced* table: that is the machine the
    # netlist implements, and Step 2 renames merged states.
    working = result.table
    reference = FlowTableInterpreter(working)
    walk = random_legal_walk(working, steps=5, seed=2)
    for index, column in enumerate(walk):
        report = harness.scored_apply(column, reference, index)
        assert report.state_correct, (
            f"state mismatch at step {index}: expected "
            f"{report.expected_state}, observed {report.observed_state}"
        )
        assert report.outputs_correct
        assert report.soc_respected


@given(normal_mode_tables(max_states=3, max_inputs=2, allow_unspecified=False))
@END_TO_END_SETTINGS
def test_synthesis_invariants_hold_for_random_tables(table):
    assume(not check_strongly_connected(table))
    assume(not check_stability(table))
    result = synthesize(table)
    # fsv is never high at a resting point
    from repro.logic.expr import expr_truth

    fsv_table = expr_truth(result.fsv.expr, result.spec.names)
    for minterm in result.spec.stable_minterms():
        assert fsv_table[minterm] == 0
    # depth identity of Table 1
    report = result.depth_report
    assert report.total_depth == report.fsv_depth + report.y_depth + 1
