"""Quickstart: specify a machine, run SEANCE via `repro.api`, inspect it.

This walks the public API end to end:

1. describe an asynchronous controller as a normal-mode flow table,
2. open an `api.load(...)` session and run the full Figure-3 pipeline,
3. read the hazard analysis and the synthesised equations,
4. ship the result through its JSON wire form (`to_dict`/`from_dict`
   round-trip byte-identically — that is how results cross machines),
5. build the gate-level FANTOM machine and run one hand-shake.

Run:  python examples/quickstart.py
"""

import json

from repro import FlowTableBuilder, api, build_fantom
from repro.sim import FantomHarness, loop_safe_random


def build_specification():
    """A tiny two-phase controller with a multiple-input change.

    The machine idles until both `go` and `ready` are up — and because
    the environment may raise them (nearly) simultaneously, that is a
    multiple-input change the machine must survive.
    """
    builder = FlowTableBuilder(inputs=["go", "ready"], outputs=["run"])
    # idle rests under every pattern except both-high...
    builder.stable("idle", "00", "0")
    builder.stable("idle", "10", "0")
    builder.stable("idle", "01", "0")
    builder.add("idle", "11", "active")
    # ...and `active` runs until both drop.
    builder.stable("active", "11", "1")
    builder.stable("active", "10", "1")
    builder.stable("active", "01", "1")
    builder.add("active", "00", "idle")
    return builder.build(reset="idle", name="two_phase")


def main():
    table = build_specification()
    print("Flow table:")
    print(table.pretty())
    print()

    # The front door: load any table source, run the paper pipeline.
    # (Sessions are fluent — .with_options(...), .with_store(...) derive
    # reconfigured sessions; derived sessions share one result store.)
    session = api.load(table)
    result = session.run()
    print(result.describe())
    print()
    print("Hazard analysis (the Figure-4 search):")
    print(result.analysis.describe(result.spec))
    print()

    # The depths of Table 1, for this machine:
    name, fsv_depth, y_depth, total = result.table1_row()
    print(
        f"Table-1 metrics for {name!r}: fsv depth {fsv_depth}, "
        f"Y depth {y_depth}, total depth {total}"
    )
    print()

    # Results are plain data on the wire: to_dict() → JSON →
    # from_dict() reconstructs the full result, byte-identically.
    wire = json.dumps(result.to_dict())
    shipped = api.SynthesisResult.from_dict(json.loads(wire))
    assert shipped.table1_row() == result.table1_row()
    print(
        f"result survives its JSON wire form "
        f"({len(wire)} bytes, round-trip byte-identical)"
    )
    print()

    # Build the architecture of Figure 1 and run a hand-shake in which
    # both inputs change at once.
    machine = build_fantom(shipped)
    print(f"FANTOM netlist: {machine.netlist.stats()}")
    harness = FantomHarness(machine, delays=loop_safe_random(seed=7))
    state, outputs = harness.apply(table.column_of("11"))
    print(
        f"after applying go=1, ready=1 simultaneously: "
        f"state={state}, run={outputs[0]}"
    )
    state, outputs = harness.apply(table.column_of("00"))
    print(
        f"after dropping both:                         "
        f"state={state}, run={outputs[0]}"
    )


if __name__ == "__main__":
    main()
