"""Differential fuzzing: every independent engine pair over one corpus.

The library keeps three deliberately redundant implementations of its
hot paths — the packed-bitset logic engine vs ``logic/_reference``, the
event kernel with its cycle memo off vs on (the ``compiled`` and
``ring`` engines), and the FANTOM synthesis vs the SIC Huffman baseline
— plus a flow-table interpreter as the behavioural oracle.  This module
drives generated corpus machines (:mod:`repro.corpus.families`) through
all of them and treats *any* disagreement as a finding:

``logic-primes`` / ``logic-useful`` / ``logic-cover``
    The bitset engine's primes, useful-prime filter, or minimal cover
    differ from the reference engine on an excitation or output
    function of the synthesised machine.
``huffman-cover``
    A consensus cover the SIC baseline ships (built with the bitset
    engine) differs from the reference engine's useful primes of the
    same function.
``trace``
    The ``compiled`` (memo-off) and ``ring`` (memo-on) engines score
    the same walk on the same silicon differently (cycle-by-cycle
    ``CycleReport`` lists): a cycle replay that is not the live cycle
    it stands for.  Under ``unit`` (``ring`` path) and ``loop-safe``
    (``ticks`` path) the ``ring`` leg replays cycles.  Under
    ``loop-safe-offgrid`` its delays have no time quantum, so it runs
    on the ``heap`` path with replay off: there the comparison is
    memo-off vs memo-off of one kernel and checks that path, not
    replay.
``dirty-cell``
    A machine diverges from its own flow table under some delay model —
    both kernels agree, so this is a synthesis/timing anomaly, not an
    engine bug.  Known anomalies are pinned in :data:`KNOWN_DIRTY`
    (the ``lion9``/``train11`` convention) and reported separately.
``selftest``
    Only under :data:`SELFTEST_ENV`: a deliberately perturbed truth
    table must produce an output stream that diverges from the clean
    machine's — proof the loop catches real bugs end to end.

Machines are built with :func:`repro.sim.harness.build_timed_fantom`
(Gate A padded per Section 4.3) so a dirty cell is always a logic
anomaly, never a critical-path-3 race by construction.

Each machine is derived once.  The SIC baseline takes FANTOM's reduced
table and Tracey assignment (the paper's baseline uses the same ones;
only its covers differ) through
:func:`~repro.baselines.huffman.huffman_from_assignment`, so the table
is reduced and assigned once.  Each distinct Boolean function — keyed
on its exact ``(on_mask, dc_mask, width)`` — has its bitset and
reference primes and useful primes derived once per machine, in a map
the logic and Huffman legs share.  The logic leg compares all four and
selects each engine's cover from its own useful primes; the Huffman
leg compares the covers the baseline actually ships against the
reference useful primes.  Every comparison still runs on every
function; only the repeated derivations are gone.  The armed self-test
reuses the clean machine the simulation leg already walked.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from ..api import PipelineSpec, synthesize
from ..baselines.huffman import HuffmanResult, huffman_from_assignment
from ..errors import ReproError
from ..flowtable.table import Entry, FlowTable
from ..logic import _reference as ref
from ..logic.cover import minimal_cover
from ..logic.cube import Cube
from ..logic.function import BooleanFunction
from ..logic.quine_mccluskey import primes_of, useful_primes
from ..sim.campaign import ENGINES, delay_model
from ..sim.delays import RandomDelay
from ..sim.harness import (
    build_timed_fantom,
    expected_walk,
    export_walk_vcd,
    random_legal_walk,
    validate_walk,
)
from ..store.keys import fuzz_key, table_digest
from ..store.sharding import check_shard
from .families import corpus_fingerprint, generate
from .keys import CorpusKey, is_corpus_key, parse_key

#: Environment variable that arms the self-test leg.
SELFTEST_ENV = "REPRO_FUZZ_SELFTEST"

#: Delay models every machine is walked under.  ``unit`` and
#: ``loop-safe`` put the ``ring`` leg on a replaying path (``ring`` and
#: ``ticks``).  The off-grid ``loop-safe-offgrid`` variant puts both legs
#: on the ``heap`` path with replay off, so its ``trace`` comparison is
#: memo-off vs memo-off of one kernel: it checks the heap path, not
#: replay.
DEFAULT_MODELS = ("unit", "loop-safe", "loop-safe-offgrid")

#: Corpus machines with pinned, characterised anomalies — the
#: ``LION9_FAILING_CELLS`` convention extended to generated workloads.
#: A ``dirty-cell`` finding on one of these keys is reported as *known*
#: and does not fail a fuzz run (``--strict`` overrides).  Currently
#: empty: the one anomaly the loop has caught so far (a dynamic hazard
#: on the protocol-ring family's former MIC fast-forward skips — a
#: stale input term races the state feedback, glitches an excitation
#: into an unspecified region, and the machine oscillates or settles
#: wrong; both kernels agree, so it is a synthesis gap, not an engine
#: bug) was instead removed from the generator and kept as a minimised
#: divergent fixture in ``tests/corpus/fixtures/``.
KNOWN_DIRTY: dict[str, str] = {}

#: Families whose machines are *expected* to show dirty cells at some
#: rate: their geometry deliberately applies genuinely simultaneous
#: multiple-input changes, which excite the characterised dynamic-hazard
#: synthesis gap (ROADMAP item 3).  A dirty cell on one of these
#: families is downgraded to *known* — but only when both kernels agree
#: on the identical dirty trace (an engine disagreement is always a
#: hard finding).  The SIC families and ``hazard-dense`` gate at zero.
KNOWN_DIRTY_FAMILIES: dict[str, str] = {
    "burst-mode": (
        "two-edge input bursts land simultaneously at FFX; at a few "
        "percent of seeds a stale input term races the state feedback "
        "and glitches an excitation into an unspecified region "
        "(dynamic hazard outside the fsv correction's cover).  Kept "
        "deliberately: this family is the standing reproducer for the "
        "MIC hazard gap."
    ),
}

#: The ``trace`` leg's engine pair, ``compiled`` (memo off) first.
_ENGINES = tuple(ENGINES.items())


@dataclass(frozen=True)
class Finding:
    """One divergence between two engines (or machine and spec)."""

    key: str
    check: str
    detail: str
    fingerprint: str
    model: str | None = None
    engine: str | None = None
    walk: tuple[int, ...] = ()
    walk_seed: int | None = None
    steps: int | None = None
    known: bool = False

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "check": self.check,
            "detail": self.detail,
            "fingerprint": self.fingerprint,
            "model": self.model,
            "engine": self.engine,
            "walk": list(self.walk),
            "walk_seed": self.walk_seed,
            "steps": self.steps,
            "known": self.known,
        }


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzz run."""

    findings: list[Finding] = field(default_factory=list)
    known_findings: list[Finding] = field(default_factory=list)
    machines: int = 0
    checks: int = 0
    seconds: float = 0.0
    family_seconds: dict[str, float] = field(default_factory=dict)
    store_hits: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "machines": self.machines,
            "checks": self.checks,
            "seconds": round(self.seconds, 6),
            "family_seconds": {
                family: round(seconds, 6)
                for family, seconds in sorted(self.family_seconds.items())
            },
            "store_hits": self.store_hits,
            "findings": [finding.to_dict() for finding in self.findings],
            "known_findings": [
                finding.to_dict() for finding in self.known_findings
            ],
        }


def selftest_enabled() -> bool:
    """True when :data:`SELFTEST_ENV` is set (to anything non-empty)."""
    return bool(os.environ.get(SELFTEST_ENV))


def perturb_table(table: FlowTable) -> FlowTable | None:
    """Invert every specified bit of output 0 — the injected bug.

    The perturbed table has identical states, columns and next-state
    structure (so every walk legal for one is legal for the other) but
    contradicts the original on output 0 at every point where that
    output is specified.  Returns ``None`` when the table has no
    specified output-0 bit to flip.
    """
    if not table.outputs:
        return None
    flipped = 0
    entries = table.entry_map()
    for point, entry in entries.items():
        outputs = entry.outputs
        if outputs and outputs[0] is not None:
            outputs = (1 - outputs[0],) + tuple(outputs[1:])
            entries[point] = Entry(entry.next_state, tuple(outputs))
            flipped += 1
    if not flipped:
        return None
    return table.replace_entries(entries).with_name(
        f"{table.name}#selftest"
    )


def _delays_for(model: str, seed: int, machine):
    if model == "loop-safe-offgrid":
        return RandomDelay(
            seed,
            gate_range=(1.5, 2.5),
            ff_range=(0.2, 1.0),
            grid_bits=None,
        )
    return delay_model(model, seed, machine)


def _cover_repr(cubes) -> str:
    return "[" + ", ".join(str(cube) for cube in cubes) + "]"


@dataclass(frozen=True)
class _Derivation:
    """Both engines' primes and useful primes of one Boolean function."""

    fast_primes: list[Cube]
    slow_primes: list[Cube]
    fast_useful: list[Cube]
    slow_useful: list[Cube]


#: One machine's derivations, keyed on the exact function
#: ``(on_mask, dc_mask, width)``.  The logic and Huffman legs share it,
#: so a function both legs see (every excitation, and each output whose
#: ``as_specified`` and ``stable_only`` readings coincide) is derived
#: once per machine.
_Derivations = dict[tuple[int, int, int], _Derivation]


def _derive(fn: BooleanFunction, derivations: _Derivations) -> _Derivation:
    key = (fn.on_mask, fn.dc_mask, fn.width)
    entry = derivations.get(key)
    if entry is None:
        fast_primes = primes_of(fn)
        slow_primes = ref.prime_implicants_reference(fn.on, fn.dc, fn.width)
        entry = derivations[key] = _Derivation(
            fast_primes,
            slow_primes,
            useful_primes(fast_primes, fn.on_mask),
            ref.useful_primes_reference(slow_primes, fn.on),
        )
    return entry


def _logic_findings(
    key: str,
    result,
    fingerprint: str,
    derivations: _Derivations,
) -> list[Finding]:
    """Packed-bitset vs reference engine over every synthesised function."""
    findings: list[Finding] = []
    spec = result.spec
    functions = [
        (f"Y{n + 1}", fn) for n, fn in enumerate(spec.excitations())
    ]
    functions += [
        (name, spec.output_function(k))
        for k, name in enumerate(result.table.outputs)
    ]
    for name, fn in functions:
        derived = _derive(fn, derivations)
        if derived.fast_primes != derived.slow_primes:
            findings.append(
                Finding(
                    key,
                    "logic-primes",
                    f"{name}: {len(derived.fast_primes)} bitset primes vs "
                    f"{len(derived.slow_primes)} reference primes",
                    fingerprint,
                )
            )
            continue
        fast_useful, slow_useful = derived.fast_useful, derived.slow_useful
        if fast_useful != slow_useful:
            findings.append(
                Finding(
                    key,
                    "logic-useful",
                    f"{name}: useful-prime filters disagree "
                    f"({len(fast_useful)} vs {len(slow_useful)})",
                    fingerprint,
                )
            )
            continue
        # Each side selects from its own engine's useful primes, just
        # compared, instead of re-deriving them.
        fast_cover = minimal_cover(fn, primes=fast_useful)
        slow_cubes, slow_essential, slow_exact = (
            ref.minimal_cover_reference(fn, primes=slow_useful)
        )
        if (
            tuple(fast_cover.cubes) != tuple(slow_cubes)
            or tuple(fast_cover.essential) != tuple(slow_essential)
            or fast_cover.exact != slow_exact
        ):
            findings.append(
                Finding(
                    key,
                    "logic-cover",
                    f"{name}: {_cover_repr(fast_cover.cubes)} bitset vs "
                    f"{_cover_repr(slow_cubes)} reference",
                    fingerprint,
                )
            )
    return findings


def _huffman_findings(
    key: str,
    baseline: HuffmanResult,
    fingerprint: str,
    derivations: _Derivations,
) -> list[Finding]:
    """The SIC baseline's shipped covers must equal the reference's.

    Every consensus cover the baseline built with the bitset engine is
    compared against the reference engine's useful primes of the same
    function.
    """
    findings: list[Finding] = []
    spec = baseline.spec
    functions = [
        (name, fn, baseline.next_state[name])
        for name, fn in zip(spec.encoding.variables, spec.excitations())
    ]
    functions += [
        (
            name,
            spec.output_function(k, policy="as_specified"),
            baseline.outputs[name],
        )
        for k, name in enumerate(baseline.table.outputs)
    ]
    for name, fn, shipped in functions:
        slow = _derive(fn, derivations).slow_useful
        if shipped != tuple(slow):
            findings.append(
                Finding(
                    key,
                    "huffman-cover",
                    f"{name}: {_cover_repr(shipped)} bitset vs "
                    f"{_cover_repr(slow)} reference",
                    fingerprint,
                )
            )
    return findings


def _first_difference(a, b) -> str:
    for index, (cell_a, cell_b) in enumerate(zip(a, b)):
        if cell_a != cell_b:
            return f"cycle {index}: {cell_a.to_dict()} vs {cell_b.to_dict()}"
    return f"cycle counts differ ({len(a)} vs {len(b)})"


def _sim_findings(
    key: str,
    machine,
    walk: list[int],
    models: tuple[str, ...],
    walk_seed: int,
    fingerprint: str,
) -> list[Finding]:
    """Kernel-pair trace equivalence plus the dirty-cell oracle."""
    findings: list[Finding] = []
    family = parse_key(key).family if is_corpus_key(key) else None
    pinned = key in KNOWN_DIRTY or family in KNOWN_DIRTY_FAMILIES
    # Set up once per machine and model: the reference step stream is
    # shared by every walk, and one delay model by both kernels' walks.
    # The kernel memoises its set-up on the machine's compiled program:
    # the initial gate counts once per machine, and each model's
    # resolved vector, fanout plans and time quantum once per model.
    expected = expected_walk(machine.result.table, walk)
    for model in models:
        delays = _delays_for(model, walk_seed, machine)
        summaries = {
            engine: validate_walk(
                machine, walk, delays, simulator_factory=factory,
                expected=expected,
            )
            for engine, factory in _ENGINES
        }
        compiled, ring = summaries["compiled"].cycles, summaries["ring"].cycles
        engines_agree = compiled == ring
        # A pinned anomaly is only "known" while both kernels tell the
        # same story — a kernel disagreement is always a hard finding.
        known = pinned and engines_agree
        if not engines_agree:
            findings.append(
                Finding(
                    key,
                    "trace",
                    _first_difference(compiled, ring),
                    fingerprint,
                    model=model,
                    walk=tuple(walk),
                    walk_seed=walk_seed,
                    steps=len(walk),
                )
            )
        for engine, summary in summaries.items():
            if summary.all_clean:
                continue
            dirty = [
                cycle.to_dict()
                for cycle in summary.cycles
                if not cycle.clean
            ]
            findings.append(
                Finding(
                    key,
                    "dirty-cell",
                    f"{len(dirty)} dirty cycle(s), first: {dirty[0]}",
                    fingerprint,
                    model=model,
                    engine=engine,
                    walk=tuple(walk),
                    walk_seed=walk_seed,
                    steps=len(walk),
                    known=known,
                )
            )
    return findings


def dirty_cell_vcd_pair(
    machine,
    walk,
    model: str = "unit",
    walk_seed: int = 0,
) -> tuple[str, str]:
    """(expected, observed) VCD pair for one dirty walk.

    The spec side of a dirty cell has no gate-level trace, so the pair
    compares the per-cycle *observable* streams: each output net at one
    timestamp per hand-shake cycle, plus a virtual ``state_correct``
    flag (constantly 1 in the expected document) so a wrong-state
    settlement with accidentally-correct outputs still diffs non-empty.
    Unspecified expected outputs inherit the observed value — they are
    free by specification, so they must never diff.
    """
    from ..sim.simulator import NetChange
    from ..sim.vcd import trace_to_vcd

    delays = _delays_for(model, walk_seed, machine)
    summary = validate_walk(
        machine, walk, delays, simulator_factory=ENGINES["compiled"]
    )
    outputs = list(machine.result.table.outputs)
    nets = outputs + ["state_correct"]
    expected: list[NetChange] = []
    observed: list[NetChange] = []
    for cycle in summary.cycles:
        stamp = float(cycle.index + 1)
        for name, want, got in zip(
            outputs, cycle.expected_outputs, cycle.observed_outputs
        ):
            expected.append(
                NetChange(stamp, name, got if want is None else want)
            )
            observed.append(NetChange(stamp, name, got))
        expected.append(NetChange(stamp, "state_correct", 1))
        observed.append(
            NetChange(stamp, "state_correct", int(cycle.state_correct))
        )
    initial = {"state_correct": 1}
    return (
        trace_to_vcd(expected, nets, initial, resolution=1),
        trace_to_vcd(observed, nets, initial, resolution=1),
    )


def selftest_divergence(
    table: FlowTable,
    walk: list[int],
    model: str = "unit",
    walk_seed: int = 0,
    clean_machine=None,
) -> tuple[str, str, str] | None:
    """Observed-output divergence between clean and perturbed machines.

    Returns ``(detail, vcd_clean, vcd_perturbed)`` when the perturbed
    machine's output stream differs from the clean machine's on
    ``walk`` — the caught injected bug — or ``None`` when the
    perturbation is impossible or (unexpectedly) unobservable.  State
    names cannot be compared across the two machines (their state
    reductions differ), so the comparison is the per-cycle
    ``(column, observed_outputs)`` stream.  ``clean_machine`` is the
    timed FANTOM machine of ``table`` when the caller already built it
    (:func:`fuzz_table` has); otherwise it is synthesised here.
    """
    perturbed_table = perturb_table(table)
    if perturbed_table is None:
        return None
    if clean_machine is None:
        clean_machine = build_timed_fantom(synthesize(table))
    perturbed_machine = build_timed_fantom(synthesize(perturbed_table))
    streams = []
    for machine in (clean_machine, perturbed_machine):
        delays = _delays_for(model, walk_seed, machine)
        summary = validate_walk(
            machine, walk, delays, simulator_factory=ENGINES["compiled"]
        )
        streams.append(
            [
                (cycle.column, tuple(cycle.observed_outputs))
                for cycle in summary.cycles
            ]
        )
    if streams[0] == streams[1]:
        return None
    for index, (a, b) in enumerate(zip(*streams)):
        if a != b:
            detail = (
                f"cycle {index} column {a[0]}: clean outputs "
                f"{list(a[1])} vs perturbed {list(b[1])}"
            )
            break
    else:
        detail = (
            f"stream lengths differ ({len(streams[0])} vs "
            f"{len(streams[1])})"
        )
    vcds = tuple(
        export_walk_vcd(
            machine, walk, _delays_for(model, walk_seed, machine)
        )
        for machine in (clean_machine, perturbed_machine)
    )
    return (detail, *vcds)


def _selftest_findings(
    key: str,
    table: FlowTable,
    machine,
    walk: list[int],
    walk_seed: int,
    fingerprint: str,
) -> list[Finding]:
    outcome = selftest_divergence(
        table, walk, walk_seed=walk_seed, clean_machine=machine
    )
    if outcome is None:
        return [
            Finding(
                key,
                "selftest-miss",
                "injected output perturbation produced no observable "
                "divergence — the selftest leg is broken",
                fingerprint,
                walk=tuple(walk),
                walk_seed=walk_seed,
                steps=len(walk),
            )
        ]
    detail, _, _ = outcome
    return [
        Finding(
            key,
            "selftest",
            detail,
            fingerprint,
            model="unit",
            walk=tuple(walk),
            walk_seed=walk_seed,
            steps=len(walk),
        )
    ]


def fuzz_table(
    table: FlowTable,
    *,
    key: str | None = None,
    models: tuple[str, ...] = DEFAULT_MODELS,
    steps: int = 18,
    walk_seed: int = 0,
    selftest: bool | None = None,
) -> list[Finding]:
    """Run every differential check on one machine.

    ``selftest=None`` defers to the :data:`SELFTEST_ENV` environment
    variable, so a whole campaign can be armed without threading a
    flag through the CLI.
    """
    _check_steps(steps)
    key = key if key is not None else table.name
    if selftest is None:
        selftest = selftest_enabled()
    fingerprint = corpus_fingerprint(table)
    result = synthesize(table)
    # The logic and Huffman legs share one derivation per distinct
    # function; the map lives only as long as this machine.
    derivations: _Derivations = {}
    findings = _logic_findings(key, result, fingerprint, derivations)
    baseline = huffman_from_assignment(
        table, result.table, result.assignment
    )
    findings += _huffman_findings(key, baseline, fingerprint, derivations)
    machine = build_timed_fantom(result)
    walk = random_legal_walk(table, steps, seed=walk_seed)
    findings += _sim_findings(
        key, machine, walk, models, walk_seed, fingerprint
    )
    if selftest:
        findings += _selftest_findings(
            key, table, machine, walk, walk_seed, fingerprint
        )
    return findings


def _resolve_source(source) -> tuple[str, str, FlowTable]:
    """(key, family, table) for one fuzz-run input."""
    if isinstance(source, FlowTable):
        key = source.name
        family = (
            parse_key(key).family if is_corpus_key(key) else "adhoc"
        )
        return key, family, source
    if isinstance(source, CorpusKey):
        source = str(source)
    if is_corpus_key(source):
        key = str(parse_key(source))  # canonicalise
        return key, parse_key(key).family, generate(key)
    raise ReproError(
        f"fuzz sources are corpus keys or flow tables, not {source!r}"
    )


def _check_steps(steps: int) -> None:
    # A walk of no cycles runs no simulation check and would pass
    # vacuously.
    if steps < 1:
        raise ReproError(f"steps must be >= 1, got {steps}")


def _checks_per_machine(models: tuple[str, ...], selftest: bool) -> int:
    # logic + huffman legs count as one check each; each model runs a
    # trace check and two dirty-cell checks; selftest adds one.
    return 2 + 3 * len(models) + (1 if selftest else 0)


def run_fuzz(
    sources,
    *,
    models: tuple[str, ...] = DEFAULT_MODELS,
    steps: int = 18,
    walk_seed: int = 0,
    selftest: bool | None = None,
    shard: tuple[int, int] | None = None,
    store=None,
    strict: bool = False,
    progress=None,
) -> FuzzReport:
    """Fuzz a corpus: every source through every differential check.

    ``sources`` is any iterable of corpus keys (strings or
    :class:`~repro.corpus.keys.CorpusKey`) and/or
    :class:`~repro.flowtable.table.FlowTable` objects.  ``shard=(i,
    n)`` keeps only the machines whose table digest lands on shard
    ``i`` — the store's partitioning rule, so a fleet of workers
    covers a corpus disjointly with no coordination; a shard outside
    ``0 <= i < n`` raises :class:`~repro.errors.StoreError`.  With a
    ``store``, each machine's report is archived under its
    :func:`~repro.store.keys.fuzz_key` and warm machines are skipped.
    Findings on :data:`KNOWN_DIRTY` machines land in
    ``known_findings`` unless ``strict``.
    """
    _check_steps(steps)
    if shard is not None:
        index, count = shard
        check_shard(count, index)
    if selftest is None:
        selftest = selftest_enabled()
    report = FuzzReport()
    spec = PipelineSpec()
    started = time.perf_counter()
    for source in sources:
        key, family, table = _resolve_source(source)
        if shard is not None:
            if int(table_digest(table), 16) % count != index:
                continue
        machine_started = time.perf_counter()
        cached = None
        storage_key = None
        if store is not None:
            storage_key = fuzz_key(
                table,
                spec,
                models=models,
                steps=steps,
                walk_seed=walk_seed,
            )
            cached = store.get_artifact(storage_key, "report")
        if cached is not None:
            import json

            findings = [
                Finding(**{**payload, "walk": tuple(payload["walk"])})
                for payload in json.loads(cached)
            ]
            report.store_hits += 1
        else:
            findings = fuzz_table(
                table,
                key=key,
                models=models,
                steps=steps,
                walk_seed=walk_seed,
                selftest=selftest,
            )
            if store is not None:
                import json

                store.put_artifact(
                    storage_key,
                    "report",
                    json.dumps(
                        [finding.to_dict() for finding in findings]
                    ).encode(),
                )
        report.machines += 1
        report.checks += _checks_per_machine(models, selftest)
        for finding in findings:
            if finding.known and not strict:
                report.known_findings.append(finding)
            else:
                report.findings.append(finding)
        elapsed = time.perf_counter() - machine_started
        report.family_seconds[family] = (
            report.family_seconds.get(family, 0.0) + elapsed
        )
        if progress is not None:
            progress(key, findings)
    report.seconds = time.perf_counter() - started
    return report
