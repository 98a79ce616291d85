"""Two FANTOM stages composed into a self-timed pipeline.

Paper Section 4.1: a stage's ``VI`` "is the VOM signal of the previous
stage", so machines chain without any global clock — "separate state
machines are allowed to proceed at their own pace".

Stage 1 is the two-state `hazard_demo` machine (it absorbs the
multiple-input changes of the raw environment); stage 2 is a one-input
follower that watches stage 1's latched output.  The composite is a
single netlist; the example drives it through several transactions and
shows the one-transaction pipeline latency the hand-shake implies.

Both stages are synthesised through one `repro.api` session chain —
`api.load(...)` accepts benchmark names and programmatic tables alike,
and `.with_table(...)` re-targets a session without rebuilding its
configuration.

Run:  python examples/pipeline_chain.py
"""

from repro import FlowTableBuilder, api
from repro import build_fantom
from repro.netlist import chain
from repro.sim import Simulator, loop_safe_random


def build_follower():
    """A one-input machine that copies its (latched) input to its output."""
    builder = FlowTableBuilder(inputs=["d"], outputs=["q"])
    builder.stable("low", "0", "0").add("low", "1", "high")
    builder.stable("high", "1", "1").add("high", "0", "low")
    return builder.build(reset="low", name="follower")


def run_transaction(sim, pipeline, column, env_delay=2.0, budget=600.0):
    """One full hand-shake against the composite pipeline."""

    def wait_for(net, value):
        deadline = sim.now + budget
        sim.run(until=deadline, stop_when=lambda s: s.value(net) == value)
        assert sim.value(net) == value, f"timeout on {net}={value}"

    wait_for(pipeline.stage1_vom, 1)
    sim.run_until_quiet(budget)
    start = sim.now
    for i, pin in enumerate(pipeline.external_inputs):
        sim.schedule(pin, column >> i & 1, at=start + env_delay)
    sim.schedule(pipeline.vi, 1, at=start + 2 * env_delay)
    wait_for(pipeline.stage1_vom, 0)
    sim.schedule(pipeline.vi, 0, at=sim.now + env_delay)
    wait_for(pipeline.stage1_vom, 1)
    sim.run_until_quiet(budget)
    return {
        "stage1_z": sim.value("s1_z1"),
        "stage2_q": sim.value(pipeline.stage2_outputs[0]),
    }


def main():
    # One fluent session chain: same configuration, two different
    # machines.
    session = api.load("hazard_demo")
    stage1 = build_fantom(session.run())
    stage2 = build_fantom(session.with_table(build_follower()).run())
    pipeline = chain(stage1, stage2, name="demo_pipeline")
    print(f"composite netlist: {pipeline.netlist.stats()}")

    sim = Simulator(
        pipeline.netlist,
        delays=loop_safe_random(seed=5),
        initial_values=pipeline.initial_values(),
    )

    table = stage1.result.table
    col = table.column_of
    # Drive the front stage through on/off phases, including the
    # multiple-input change 01 -> 10 that crosses its hazard column.
    sequence = [
        ("switch on (both bits rise together)", col("11")),
        ("stay on", col("01")),
        ("move to 10 (through the hazard column!)", col("10")),
        ("switch on again", col("11")),
        ("all off", col("00")),
    ]
    print("\ntransaction trace (note stage 2 lags one hand-shake):")
    print(f"  {'input':7s} {'stage1 z':>9s} {'stage2 q':>9s}")
    for description, column in sequence:
        values = run_transaction(sim, pipeline, column)
        print(
            f"  {table.column_string(column):7s} "
            f"{values['stage1_z']:9d} {values['stage2_q']:9d}   "
            f"({description})"
        )

    print(
        "\nstage 2's q equals stage 1's z of the previous transaction: "
        "the stages really do proceed at their own pace."
    )


if __name__ == "__main__":
    main()
