"""The 4-phase environment harness driving a FANTOM machine.

One hand-shake cycle, exactly as Section 4.2 prescribes:

1. wait for ``VOM`` high (the machine advertises completion);
2. drive the external pins ``X*`` to the new vector, then raise ``VI``;
3. the machine raises ``G`` internally, latches the inputs, and drops
   ``VOM``; on seeing that, the environment drops ``VI``;
4. the machine settles (possibly through an ``fsv``-mediated second state
   change) and re-asserts ``VOM``, latching the outputs into ``FFZ``.

"Like-successive" inputs are legal — re-applying the resting vector still
completes a full hand-shake (paper Section 3's extension of the SI
model) — and the harness exercises them in its random walks.

`validate_against_reference` runs random legal input walks and scores
each cycle against the flow-table interpreter, producing the
:class:`~repro.sim.monitors.ValidationSummary` the hazard benchmarks
aggregate.
"""

from __future__ import annotations

import random
from functools import partial

from ..errors import SimulationError
from ..netlist.fantom import FantomMachine
from .delays import DelayModel, loop_safe_random
from .monitors import CycleReport, ValidationSummary
from .reference import FlowTableInterpreter
from .simulator import Simulator

#: A :class:`CycleReport` built straight from its field tuple, skipping
#: the generated ``__new__`` frame: every scored cycle builds one.
_report = partial(tuple.__new__, CycleReport)


class FantomHarness:
    """Owns one machine instance, one simulator, and the hand-shake.

    ``simulator_factory`` selects the event kernel — the
    :class:`~repro.sim.simulator.Simulator` by default (cycle replay
    on; ``partial(Simulator, replay=False)`` runs every cycle live), or
    the retained :class:`~repro.sim._reference.ReferenceSimulator` for
    equivalence pinning and benchmarking (both take the same
    constructor arguments and expose the same driving surface).

    **Cycle replay.**  A hand-shake cycle is a pure function of the
    kernel's exact state and the column, and a walk revisits the same
    few (state, column) pairs over and over.  On a kernel that exposes
    ``cycle_key`` with replay on (see :mod:`repro.sim.simulator`), a cycle
    that starts keyed with nothing carried over in the trace, and ends
    drained with nothing carried out, is memoised on this harness with
    its judgement; a cycle that raises is never stored.  A revisit is
    a memo hit: its report is rebuilt with no ``run``, ``schedule`` or
    trace scan.  Each capture names the state it exits to, so a run of
    consecutive hits follows the memo from capture to capture and only
    adds up the clock advance, events and replay count, checking each
    hit against the kernel's event budget and exactness horizon
    (``cycle_admits``).  The kernel is restored once per run, from its
    last capture: before the next live cycle, and before
    :meth:`scored_apply_expected` or :func:`validate_walk` returns, so
    no caller ever sees a kernel with replays still pending.
    """

    #: Environment think-time between observing an edge and reacting.
    ENV_DELAY = 2.0
    #: Budget for each wait; generous relative to any benchmark's depth.
    WAIT_BUDGET = 600.0

    def __init__(
        self,
        machine: FantomMachine,
        delays: DelayModel | None = None,
        simulator_factory=Simulator,
    ):
        self.machine = machine
        self.simulator = sim = simulator_factory(
            machine.netlist,
            delays=delays,
            initial_values=machine.initial_values(),
        )
        # Scoring reads only VOM rises and output changes.
        sim.watch(machine.vom, *machine.output_nets)
        self._read_state = sim.values_reader(machine.state_nets)
        self._read_outputs = sim.values_reader(machine.output_nets)
        # Decode the state bank straight from its bit tuple (net ``n``
        # carries code bit ``n``); an unused code decodes to ``None``.
        width = len(machine.state_nets)
        self._state_of = {
            tuple(code >> n & 1 for n in range(width)): state
            for state, code in machine.result.spec.encoding.codes.items()
        }
        # The driving surface, bound once: the hand-shake calls these
        # several times a cycle.  (A path migration rebinds nothing, so
        # these stay valid.)
        self._run = sim.run
        self._schedule = sim.schedule
        self._run_until_quiet = sim.run_until_quiet
        self._vi = machine.vi
        self._vom = machine.vom
        self._read_vom = sim.net_reader(machine.vom)
        self._pin_readers = [
            (net, sim.net_reader(net)) for net in machine.external_inputs
        ]
        self._output_net_list = list(machine.output_nets)
        self._trace = sim.trace
        self.cycle_count = 0
        # The cycle memo: (state, column) -> (kernel capture, judgement).
        self._cycle_key = getattr(sim, "cycle_key", None)
        if self._cycle_key is not None:
            self._cycle_admits = sim.cycle_admits
            self._cycle_restore = sim.cycle_restore
        self._cycles: dict = {}
        # The pending run of memo hits: its last capture (``None``: no
        # run pending), the clock and event count it ends on, its length.
        self._chain = None
        self._chain_now = 0.0
        self._chain_events = 0
        self._chain_replays = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.simulator.now

    def observed_state(self) -> str | None:
        return self._state_of.get(self._read_state())

    def outputs(self) -> tuple[int, ...]:
        return self._read_outputs()

    # ------------------------------------------------------------------
    def _wait_for_vom(self, value: int) -> None:
        """One ``run`` that stops on the ``VOM`` edge to ``value``."""
        read_vom = self._read_vom
        if read_vom() == value:
            return
        self._run(
            self.simulator.now + self.WAIT_BUDGET, None, self._vom, value
        )
        if read_vom() != value:
            raise SimulationError(
                f"timeout waiting for {self._vom}={value} "
                f"(machine {self.machine.netlist.name!r})"
            )

    def apply(self, column: int) -> tuple[str | None, tuple[int, ...]]:
        """Run one full hand-shake delivering ``column`` to the machine.

        Returns the decoded state and the latched outputs after VOM
        re-asserts.
        """
        sim = self.simulator
        schedule = self._schedule
        wait_for_vom = self._wait_for_vom
        wait_for_vom(1)
        self._run_until_quiet(self.WAIT_BUDGET)

        start = sim.now
        at = start + self.ENV_DELAY
        for i, (net, read) in enumerate(self._pin_readers):
            bit = column >> i & 1
            # The pins are quiet here (the queue just drained), so a
            # pin already at its target level needs no event — walks
            # re-apply like-successive columns constantly.
            if read() != bit:
                schedule(net, bit, at)
        vi = self._vi
        schedule(vi, 1, start + 2 * self.ENV_DELAY)
        wait_for_vom(0)
        schedule(vi, 0, sim.now + self.ENV_DELAY)
        wait_for_vom(1)
        self._run_until_quiet(self.WAIT_BUDGET)
        self.cycle_count += 1
        return self._state_of.get(self._read_state()), self._read_outputs()

    # ------------------------------------------------------------------
    def scored_apply(
        self, column: int, reference: FlowTableInterpreter, index: int
    ) -> CycleReport:
        """Apply one column and judge the cycle against the reference."""
        return self.scored_apply_expected(
            column, reference.apply(column), index
        )

    def scored_apply_expected(
        self, column: int, expected, index: int
    ) -> CycleReport:
        """Apply one column, judged against a precomputed reference step.

        The campaign replays one walk under many delay models; the
        expected :class:`~repro.sim.reference.ReferenceStep` stream
        depends only on (table, walk), so precomputing it once and
        passing each step here removes the interpreter from every
        timed cell.

        Scoring keeps no history: the cycle's window of the trace is
        judged and then dropped (only changes stamped at the window's
        end survive, as the next window counts them), so a long walk's
        trace stays one cycle long.  Output changes count over
        ``[start, end)``, ``VOM`` rises over ``(start, end]``.  A
        revisited cycle is served from the memo (see the class docs),
        and the kernel is restored before this returns.
        """
        report = self._scored_step(column, expected, index)
        self._flush()
        return report

    def _scored_step(self, column: int, expected, index: int) -> CycleReport:
        """One scored cycle: a memo hit joins the pending run of hits,
        anything else lands that run and runs the cycle live."""
        chain = self._chain
        key = entry = None
        if chain is not None:
            key = (chain[0], column)
            entry = self._cycles.get(key)
        elif self._cycle_key is not None and not self._trace:
            state = self._cycle_key()
            if state is not None:
                key = (state, column)
                entry = self._cycles.get(key)
        if entry is not None:
            capture = entry[0]
            if chain is None:
                sim = self.simulator
                now = sim.now + capture[1]
                processed = sim.events_processed + capture[2]
            else:
                now = self._chain_now + capture[1]
                processed = self._chain_events + capture[2]
            if self._cycle_admits(now, processed):
                self._chain = capture
                self._chain_now = now
                self._chain_events = processed
                self._chain_replays += 1
                self.cycle_count += 1
                _, observed_state, observed_outputs, changes, vom_rises = (
                    entry
                )
                return _report((
                    index, column, expected.state, observed_state,
                    expected.outputs, observed_outputs, dict(changes),
                    vom_rises,
                ))
        if chain is not None:
            self._flush()
        return self._judged_apply(column, expected, index, key)

    def _flush(self) -> None:
        """Restore the kernel from the pending run of memo hits, if any."""
        chain = self._chain
        if chain is not None:
            self._chain = None
            self._cycle_restore(
                chain, self._chain_now, self._chain_events,
                self._chain_replays,
            )
            self._chain_replays = 0

    def _judged_apply(
        self, column: int, expected, index: int, key
    ) -> CycleReport:
        """Run one cycle live and judge its trace window.

        Returns the cycle's report and, when ``key`` is set and the
        cycle carried nothing out, memoises its (state, outputs,
        per-output changes, ``VOM`` rises) under it with the kernel's
        capture of the cycle.
        """
        sim = self.simulator
        trace = self._trace
        window_start = sim.now
        events = sim.events_processed
        observed_state, observed_outputs = self.apply(column)
        window_end = sim.now
        vom = self._vom
        changes = dict.fromkeys(self._output_net_list, 0)
        vom_rises = 0
        for change in trace:
            net = change.net
            if net in changes:
                if window_start <= change.time < window_end:
                    changes[net] += 1
            elif (
                net == vom
                and change.value == 1
                and window_start < change.time
            ):
                vom_rises += 1
        keep = len(trace)
        while keep and trace[keep - 1].time == window_end:
            keep -= 1
        del trace[:keep]
        if key is not None and not trace:
            capture = sim.cycle_capture(window_start, events)
            if capture is not None:
                self._cycles[key] = (
                    capture, observed_state, observed_outputs,
                    dict(changes), vom_rises,
                )
        return _report((
            index, column, expected.state, observed_state,
            expected.outputs, observed_outputs, changes, vom_rises,
        ))


def kernel_snapshot(sim) -> dict | None:
    """One walk's kernel telemetry in :class:`ValidationSummary` form.

    Reads the simulator's ``kernel_stats`` (both event kernels expose
    it; the reference kernel does not — ``None`` then) and normalises it
    to the aggregatable shape ``merge_kernel`` folds: the walk counts
    one unit towards the path it *ended* on, so a demoted walk shows up
    under its fallback path with the demotion itself in ``migrations``.
    """
    stats = getattr(sim, "kernel_stats", None)
    if stats is None:
        return None
    return {
        "paths": {stats["path"]: 1},
        "migrations": dict(stats.get("migrations", {})),
        # The replay counters are deliberately absent: they say how
        # the kernel ran, not what the walk observed, and the summary's
        # wire form must not depend on the engine's internals.
    }


def expected_walk(table, walk: list[int]) -> list:
    """The reference interpreter's step stream for one column walk.

    Depends only on (table, walk) — the campaign computes it once per
    (table, seed) and shares it across every delay model's cell.
    """
    reference = FlowTableInterpreter(table)
    return [reference.apply(column) for column in walk]


def random_legal_walk(
    table,
    steps: int,
    seed: int | None = None,
    favour_mic: bool = True,
    rng: random.Random | None = None,
) -> list[int]:
    """A random sequence of legal input columns for ``table``.

    Starts at the reset state's stable column; each step picks a
    specified column of the current (settled) state, preferring
    multiple-input changes when available so the hazard machinery gets
    exercised.  Like-successive inputs (re-applying the resting column)
    are included.

    Randomness is explicit: pass ``seed`` (a private
    ``random.Random(seed)`` is built) or thread an existing ``rng``.
    The global ``random`` module is never touched, so every walk is
    reproducible from its arguments alone.
    """
    if rng is None:
        if seed is None:
            raise SimulationError(
                "random_legal_walk needs a seed or an explicit rng"
            )
        rng = random.Random(seed)
    interpreter = FlowTableInterpreter(table)
    current_column = interpreter.stable_column()
    walk: list[int] = []
    for _ in range(steps):
        legal = interpreter.legal_columns()
        mic = [
            c
            for c in legal
            if (c ^ current_column).bit_count() >= 2
        ]
        pool = mic if (favour_mic and mic and rng.random() < 0.6) else legal
        column = rng.choice(pool)
        walk.append(column)
        interpreter.apply(column)
        current_column = column
    return walk


def synthesize_and_validate(
    table,
    options=None,
    *,
    use_fsv: bool = True,
    steps: int = 30,
    seeds: tuple[int, ...] = (0, 1, 2),
    delays_factory=loop_safe_random,
    spec=None,
) -> ValidationSummary:
    """Flow table → pass pipeline → FANTOM netlist → dynamic validation.

    The one-call version of the paper's full loop: synthesise ``table``
    through :func:`repro.api.synthesize` (pass a
    :class:`~repro.pipeline.spec.PipelineSpec` to select the options),
    build the gate-level machine, and run
    :func:`validate_against_reference`.  ``use_fsv=False`` wires the
    unprotected machine (the hazard ablation).
    """
    from ..api import synthesize
    from ..netlist.fantom import build_fantom

    result = synthesize(table, options, spec=spec)
    machine = build_fantom(result, use_fsv=use_fsv)
    return validate_against_reference(
        machine, steps=steps, seeds=seeds, delays_factory=delays_factory
    )


def validate_against_reference(
    machine: FantomMachine,
    steps: int = 30,
    seeds: tuple[int, ...] = (0, 1, 2),
    delays_factory=loop_safe_random,
    simulator_factory=Simulator,
) -> ValidationSummary:
    """Random-walk validation of a machine against its flow table.

    For each seed a fresh harness (fresh silicon: new random delays) runs
    a random legal walk; every cycle is scored.  The returned summary is
    the material of the hazard-ablation benchmark: a FANTOM machine must
    come back all-clean, the fsv-less machine must not (on hazardous
    workloads).  Each seed fully determines its walk and its silicon, so
    a reported failure is replayable from ``(machine, steps, seed)``.
    """
    table = machine.result.table
    summary = ValidationSummary()
    for seed in seeds:
        walk = random_legal_walk(table, steps, rng=random.Random(seed))
        validate_walk(
            machine,
            walk,
            delays=delays_factory(seed),
            simulator_factory=simulator_factory,
            into=summary,
        )
    return summary


def build_timed_fantom(result, use_fsv: bool = True) -> FantomMachine:
    """Build a FANTOM machine with Gate A padded per Section 4.3.

    ``build_fantom`` leaves the VOM AND gate at the default unit delay;
    on deep output covers that lets ``VOM`` rise in the same instant a
    transiently-asserted ``Ẑ`` falls, and ``FFZ`` latches the stale
    value (critical path 3 violated).  The paper's prescription —
    realised by :func:`repro.netlist.timing.timing_report`'s default
    ``gate_a_padding`` — is to set ``t_f`` one level above the ``Ẑ``
    settling depth, which this constructor applies.  The differential
    fuzzer and the corpus regression suite build every machine this
    way, so a dirty cell there is a logic anomaly, never a CP3 race.
    """
    from ..netlist.fantom import build_fantom
    from ..netlist.timing import timing_report

    padding = timing_report(result).t_f
    return build_fantom(
        result, use_fsv=use_fsv, vom_gate_delay=float(padding)
    )


def export_walk_vcd(
    machine: FantomMachine,
    walk: list[int],
    delays: DelayModel | None = None,
    simulator_factory=Simulator,
) -> str:
    """Replay one walk with a full debug watch-set and render it as VCD.

    The scoring run watches only what the monitors need; when a cell
    comes back dirty, this deterministic replay — same walk, same seed,
    so the same silicon and the same events — records the whole
    hand-shake surface (external pins, ``VI``/``G``/``VOM``, state
    nets, outputs) for waveform inspection.  A
    :class:`~repro.errors.SimulationError` mid-walk ends the replay;
    the trace up to the failure is exactly the evidence wanted.
    """
    from .vcd import trace_to_vcd

    harness = FantomHarness(
        machine, delays=delays, simulator_factory=simulator_factory
    )
    nets = list(
        dict.fromkeys(
            [
                *machine.external_inputs,
                machine.vi,
                machine.g,
                machine.vom,
                *machine.state_nets,
                *machine.output_nets,
            ]
        )
    )
    harness.simulator.watch(*nets)
    for column in walk:
        try:
            harness.apply(column)
        except SimulationError:
            break
    return trace_to_vcd(
        harness.simulator.trace,
        nets,
        machine.initial_values(),
        module=machine.netlist.name,
    )


def validate_walk(
    machine: FantomMachine,
    walk: list[int],
    delays: DelayModel | None = None,
    simulator_factory=Simulator,
    into: ValidationSummary | None = None,
    expected: list | None = None,
) -> ValidationSummary:
    """Score one precomputed column walk on fresh silicon.

    The per-seed body of :func:`validate_against_reference`, split out so
    a :class:`~repro.sim.campaign.ValidationCampaign` can reuse one walk
    across many delay models (the walk depends only on the table and the
    seed).  Pass ``expected`` (from :func:`expected_walk`) to also reuse
    the reference interpreter's step stream across those cells.  A
    :class:`~repro.errors.SimulationError` mid-walk is recorded as a
    failed cycle and ends the walk, exactly as before.  The walk's
    kernel telemetry is folded into the summary's ``kernel`` aggregate.

    Every cycle is scored as :meth:`FantomHarness.scored_apply_expected`
    scores it, so the walk keeps only the current cycle's trace, and
    with cycle replay on a revisited (state, column) pair is replayed whole from the walk's cycle memo,
    each run of such replays landing on the kernel at once (counted as
    ``cycle_replays`` in the kernel's ``kernel_stats``, never in the
    summary).  :func:`export_walk_vcd` re-runs a walk with its full
    trace.
    """
    summary = into if into is not None else ValidationSummary()
    harness = FantomHarness(
        machine, delays=delays, simulator_factory=simulator_factory
    )
    if expected is None:
        expected = expected_walk(machine.result.table, walk)
    # One scored step per column; a run of memo hits stays pending on
    # the harness across steps and lands once the walk ends.
    scored_step = harness._scored_step
    add = summary.add
    try:
        for index, column in enumerate(walk):
            step = expected[index]
            try:
                report = scored_step(column, step, index)
            except SimulationError:
                add(CycleReport(
                    index, column, step.state, None, (), (), {}, 0
                ))
                break
            add(report)
    finally:
        harness._flush()
    summary.merge_kernel(kernel_snapshot(harness.simulator))
    return summary
