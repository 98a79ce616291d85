"""The benchmark machines of paper Table 1 (reconstructed) plus extras.

The paper evaluates SEANCE on five machines from the MCNC FSM benchmark
set (Lisanke 1987): ``test example``, ``traffic``, ``lion``, ``lion9``
and ``train11``.  The original tape is not redistributable here, so this
module embeds *reconstructions* built from the published problem
statements with the same state/input/output counts:

``lion`` / ``train4``
    The lion-and-cage problem (Kohavi; Mead & Conway use the same story
    with trains): two photocell beams at a cage door, output = lion
    inside.  Four states — outside, crossing in, inside, crossing out —
    with the crossing states stable under every beam pattern, so that a
    beam pattern settling back to the resting pattern of the *same*
    state is a multiple-input change whose intermediate columns excite a
    different state: a guaranteed function M-hazard, independent of the
    state encoding.

``lion9`` / ``train11``
    The deep-position variants: the animal/train walks a line of cells
    monitored by a two-bit Gray-coded beam pair; fast moves skip a cell
    (a two-bit input jump whose intermediate column excites the skipped
    neighbour — the classic M-hazard geometry).  9 and 11 states, as in
    MCNC.

``traffic``
    The Mead-&-Conway highway/farm-road light controller: inputs
    (car-waiting, timer-expired), outputs (highway-green, farm-green).

``test_example``
    A four-phase handshake observer, incompletely specified, that Step 2
    genuinely reduces (two of its states are compatible) — it exercises
    the whole Figure-3 pipeline the way the paper's running example does.

``hazard_demo``
    A deliberately tiny two-state-after-reduction machine with one
    guaranteed hazard point; used by the documentation examples.

Every machine is validated (normal mode, strongly connected, restable)
at load time, so the suite doubles as a regression test of the front
end.  Depth metrics will not be bit-identical to Table 1 — the tables
are reconstructions and the state assignment is a different (valid)
solution of the same covering problem — but the *shape* (fsv depth 2-4,
Y depth ~5, total = fsv + Y + 1) is preserved; EXPERIMENTS.md records
the measured values next to the paper's.
"""

from __future__ import annotations

import random

from ..flowtable.builder import FlowTableBuilder
from ..flowtable.kiss import parse_kiss, write_kiss
from ..flowtable.table import FlowTable

#: The five rows of paper Table 1, in paper order.
TABLE1_BENCHMARKS = ("test_example", "traffic", "lion", "lion9", "train11")

#: Paper-reported Table 1 values: name -> (fsv depth, Y depth, total).
PAPER_TABLE1 = {
    "test_example": (3, 5, 9),
    "traffic": (3, 5, 9),
    "lion": (3, 5, 9),
    "lion9": (4, 5, 10),
    "train11": (2, 5, 8),
}

#: Gray-coded beam patterns around the door: position k rests at
#: ``GRAY[k % 4]`` (input string is "x1x2": outer beam, inner beam).
GRAY = ("00", "10", "11", "01")


LION_KISS = """\
# lion-and-cage, 4 states, reconstructed from the textbook statement
.i 2
.o 1
.r out
00 out out 0
10 out mid_in -
11 out mid_in -
10 mid_in mid_in 0
11 mid_in mid_in 0
01 mid_in mid_in 0
00 mid_in in -
00 in in 1
01 in mid_out -
11 in mid_out -
01 mid_out mid_out 1
11 mid_out mid_out 1
10 mid_out mid_out 1
00 mid_out out -
.e
"""

TRAIN4_KISS = """\
# one-track rail crossing, 4 states (z = 1 while the gate must be down)
.i 2
.o 1
.r empty
00 empty empty 0
10 empty cross_in -
11 empty cross_in -
10 cross_in cross_in 1
11 cross_in cross_in 1
01 cross_in cross_in 1
00 cross_in inside -
00 inside inside 1
01 inside cross_out -
11 inside cross_out -
01 cross_out cross_out 1
11 cross_out cross_out 1
10 cross_out cross_out 1
00 cross_out empty -
.e
"""

TEST_EXAMPLE_KISS = """\
# four-phase handshake observer, incompletely specified (reducible)
.i 2
.o 1
.r idle
00 idle idle 0
10 idle req 0
11 idle ack 0
10 req req 0
11 req ack 1
00 req idle 0
11 ack ack 1
01 ack done 1
00 ack idle 1
10 ack req 0
01 done done 1
00 done idle 0
11 done ack 1
.e
"""

TRAFFIC_KISS = """\
# highway / farm-road light controller (inputs: car, timer-expired;
# outputs: highway-green, farm-green)
.i 2
.o 2
.r hg
00 hg hg 10
10 hg hg 10
01 hg hg 10
11 hg hy --
11 hy hy 00
10 hy fg --
01 hy hg --
00 hy hg --
10 fg fg 01
00 fg fg 01
11 fg fy --
01 fg fy --
01 fy fy 00
11 fy fy 00
00 fy hg --
10 fy hg --
.e
"""

HAZARD_DEMO_KISS = """\
# minimal two-state machine with one guaranteed function M-hazard:
# 'off' resting at 01 and moving to 10 passes through column 11, whose
# entry excites 'on' even though the state should not change at all.
.i 2
.o 1
.r off
00 off off 0
01 off off 0
10 off off 0
11 off on -
11 on on 1
01 on on 1
10 on off -
00 on off -
.e
"""


def _chain_machine(
    name: str,
    num_positions: int,
    z_of,
    jump_from,
    resync: tuple[int, str, int] | None = None,
) -> FlowTable:
    """A Gray-tracked position chain (the lion9/train11 geometry).

    Position ``k`` rests at beam pattern ``GRAY[k % 4]``; single steps
    move to the neighbouring position, and a *fast* move from position
    ``k`` (when ``jump_from(k)`` and the target exists) skips to
    ``k + 2`` — a two-bit input change whose intermediate column excites
    the skipped neighbour.  Tail positions whose forward jump would fall
    off the line carry the symmetric fast move *backwards* instead (same
    input column, two positions down), keeping the deep rows dense enough
    that no two positions are behaviourally equivalent.

    Transitional entries carry the *source* position's output (the
    machine's latched output holds its old value while the state moves),
    which is also what makes adjacent equal-zone positions observationally
    distinct during minimisation.
    """
    builder = FlowTableBuilder(inputs=["x1", "x2"], outputs=["z"])
    last = num_positions - 1

    def state(k: int) -> str:
        return f"p{k}"

    for k in range(num_positions):
        held = str(z_of(k))
        builder.stable(state(k), GRAY[k % 4], held)
        if k + 1 <= last:
            builder.add(state(k), GRAY[(k + 1) % 4], state(k + 1), held)
        if k - 1 >= 0:
            builder.add(state(k), GRAY[(k - 1) % 4], state(k - 1), held)
        if jump_from(k) and k + 2 <= last:
            builder.add(state(k), GRAY[(k + 2) % 4], state(k + 2), held)
        elif k + 2 > last and k - 2 >= 0:
            builder.add(state(k), GRAY[(k - 2) % 4], state(k - 2), held)
    if resync is not None:
        k, column, target = resync
        builder.add(state(k), column, state(target), str(z_of(k)))
    return builder.build(reset=state(0), name=name)


#: Default seed of :func:`random_flow_table`.
RANDOM_TABLE_SEED = 20260729


def random_flow_table(
    positions: int, seed: int = RANDOM_TABLE_SEED
) -> FlowTable:
    """A deterministic random chain table ``rand{positions}``.

    Built on :func:`_chain_machine`, so the table is in normal mode by
    construction; the output zones and jump structure are drawn from an
    RNG seeded by ``(seed, positions)``.  These tables exercise the
    assignment and hazard covering cores past the paper's sizes.
    """
    rng = random.Random(seed * 1000 + 499 + positions)
    zones = [rng.randint(0, 1) for _ in range(positions + 1)]
    jumps = [rng.random() < 0.5 for _ in range(positions + 1)]
    return _chain_machine(
        f"rand{positions}",
        num_positions=positions,
        z_of=lambda k: zones[k],
        jump_from=lambda k: jumps[k],
        resync=None,
    )


#: Output zones of the chain machines.  The boundaries are chosen so all
#: positions are pairwise observationally distinct (the MCNC originals
#: are likewise irreducible); see the module docstring.
_LION9_ZONES = (0, 1, 1, 1, 1, 1, 0, 1, 0)
_TRAIN11_ZONES = (0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 0)


def _lion9() -> FlowTable:
    # The resync arc: an outer-beam-only pattern seen from the den is a
    # tracking fault handled by re-synchronising to the shallow position
    # consistent with the pattern.  It also keeps p8 observationally
    # distinct from p6/p7.
    return _chain_machine(
        "lion9",
        num_positions=9,
        z_of=lambda k: _LION9_ZONES[k],
        jump_from=lambda k: True,
        resync=(8, GRAY[1], 1),
    )


def _train11() -> FlowTable:
    return _chain_machine(
        "train11",
        num_positions=11,
        z_of=lambda k: _TRAIN11_ZONES[k],
        jump_from=lambda k: k % 2 == 0,
        resync=(10, GRAY[3], 3),
    )


def _dme() -> FlowTable:
    """A burst-mode bus controller (request/grant with a done burst).

    Built through the burst-mode front end: the two-edge burst
    ``done+, req-`` is the multiple-input change; the partial-burst
    columns become hold entries.  Shows the specification style this
    paper's architecture enabled.
    """
    from ..flowtable.burst import BurstSpec

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
    return spec.to_flow_table(name="dme")


def _parity() -> FlowTable:
    """A transaction-parity observer, specified as an STG.

    Watches a req/ack handshake whose return-to-zero phase is genuinely
    concurrent; the output is the parity of completed transactions (so
    the machine is truly sequential — the output is not a function of
    the inputs).
    """
    from ..flowtable.stg import Stg

    stg = Stg(
        inputs=["req", "ack"],
        outputs=["parity"],
        initial_phase="idle_even",
        initial_inputs={"req": 0, "ack": 0},
    )
    for phase, bit in (
        ("idle_even", "0"), ("work_even", "0"), ("ackd_even", "0"),
        ("idle_odd", "1"), ("work_odd", "1"), ("ackd_odd", "1"),
    ):
        stg.phase(phase, bit)
    stg.arc("idle_even", "work_even", ["req+"])
    stg.arc("work_even", "ackd_even", ["ack+"])
    stg.arc("ackd_even", "idle_odd", ["req-", "ack-"])
    stg.arc("idle_odd", "work_odd", ["req+"])
    stg.arc("work_odd", "ackd_odd", ["ack+"])
    stg.arc("ackd_odd", "idle_even", ["req-", "ack-"])
    return stg.to_flow_table(name="parity")


_KISS_SOURCES = {
    "lion": LION_KISS,
    "train4": TRAIN4_KISS,
    "test_example": TEST_EXAMPLE_KISS,
    "traffic": TRAFFIC_KISS,
    "hazard_demo": HAZARD_DEMO_KISS,
}

_GENERATED = {
    "lion9": _lion9,
    "train11": _train11,
    "dme": _dme,
    "parity": _parity,
}


def benchmark_names() -> tuple[str, ...]:
    """All machines in the suite, Table-1 machines first."""
    extras = sorted(
        set(_KISS_SOURCES) | set(_GENERATED) - set(TABLE1_BENCHMARKS)
        - set(TABLE1_BENCHMARKS)
    )
    ordered = list(TABLE1_BENCHMARKS)
    for name in extras:
        if name not in ordered:
            ordered.append(name)
    return tuple(ordered)


def benchmark(name: str) -> FlowTable:
    """Load one benchmark machine by name (validated)."""
    if name in _KISS_SOURCES:
        table = parse_kiss(_KISS_SOURCES[name], name=name)
        from ..flowtable.validation import validate

        validate(table)
        return table
    if name in _GENERATED:
        return _GENERATED[name]()
    raise KeyError(
        f"unknown benchmark {name!r}; available: {benchmark_names()}"
    )


def kiss_source(name: str) -> str:
    """KISS2 text of a benchmark (generated machines are serialised)."""
    if name in _KISS_SOURCES:
        return _KISS_SOURCES[name]
    return write_kiss(benchmark(name))


def load_all() -> dict[str, FlowTable]:
    """Every benchmark machine, keyed by name."""
    return {name: benchmark(name) for name in benchmark_names()}


def synthesize_suite(names=None, options=None, spec=None):
    """Synthesise benchmarks through the pass pipeline, keyed by name.

    The workhorse of ``seance table1``, the ablation benchmarks and the
    regression tests: a :func:`repro.api.batch` run over the named
    machines (default: the whole suite) with an optional
    :class:`~repro.pipeline.spec.PipelineSpec` selecting the options,
    returning ``{name: SynthesisResult}`` in suite order.  Benchmarks
    are known good, so any synthesis failure is re-raised.
    """
    from ..api import batch
    from ..errors import SynthesisError

    chosen = tuple(names) if names is not None else benchmark_names()
    items = batch(
        [benchmark(name) for name in chosen],
        spec=spec,
        options=options,
    )
    results = {}
    for item in items:
        if not item.ok:
            raise SynthesisError(
                f"benchmark {item.name!r} failed to synthesise: {item.error}"
            )
        results[item.name] = item.result
    return results
