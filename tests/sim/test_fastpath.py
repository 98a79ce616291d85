"""The fractional-time fast paths, pinned and provenanced (ISSUE 9).

The ring kernel's cycle replay does not need integral delays: a
resolved delay vector negotiates an exact dyadic tick quantum
(:func:`~repro.sim.delays.negotiate_time_quantum`) under which relative
event times are exact, while vectors with no practical quantum run the
plain heap loop.  These tests pin both paths trace-for-trace to the
compiled heap kernel across every built-in delay model, exercise the
documented migrations (off-grid stimulus mid-run → heap, tick-horizon
overflow → heap, also from a ``stop_when`` callback), and check the
per-cell engine-path provenance that :class:`CampaignResult` and
``seance validate --json`` surface.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.campaign import DELAY_MODELS, ENGINES, delay_model
from repro.sim.delays import (
    TICK_SHIFT_LIMIT,
    TIME_GRID_BITS,
    RandomDelay,
    dyadic_shift,
    negotiate_time_quantum,
    snap_to_grid,
)
from repro.sim.simulator import Simulator

from .test_equivalence import netlists, run_one, stimuli

SETTINGS = settings(max_examples=40, deadline=None)

#: The one kernel with cycle replay off: the heap-loop baseline.
COMPILED = ENGINES["compiled"]

#: Engine paths a built-in-model workload may legitimately end on; the
#: heap appears only through an off-grid stimulus or the documented
#: tick-horizon overflow.
FAST_PATHS = {"ring", "ticks"}


# ----------------------------------------------------------------------
# Quantum negotiation
# ----------------------------------------------------------------------
class TestQuantumNegotiation:
    def test_integral_vector_needs_no_shift(self):
        assert negotiate_time_quantum([1.0, 2.0, 7.0]) == 0

    def test_dyadic_vector_gets_its_exact_shift(self):
        assert dyadic_shift(0.125) == 3
        assert negotiate_time_quantum([1.5, 2.0]) == 1
        assert negotiate_time_quantum([1.5, 2.25]) == 2

    def test_off_grid_vector_has_no_practical_quantum(self):
        # 0.1 and 1/3 have ~full 52-bit denominators as floats.
        assert negotiate_time_quantum([1.0, 0.1]) is None
        assert negotiate_time_quantum([1 / 3]) is None

    def test_limit_bounds_the_negotiation(self):
        deep = 1.0 + 2.0 ** -(TICK_SHIFT_LIMIT + 1)
        assert dyadic_shift(deep) == TICK_SHIFT_LIMIT + 1
        assert negotiate_time_quantum([deep]) is None
        assert (
            negotiate_time_quantum([deep], limit=TICK_SHIFT_LIMIT + 1)
            == TICK_SHIFT_LIMIT + 1
        )

    @given(st.floats(0.05, 50.0, allow_nan=False))
    @SETTINGS
    def test_snapped_values_always_negotiate(self, value):
        snapped = snap_to_grid(value)
        shift = negotiate_time_quantum([snapped])
        assert shift is not None
        assert shift <= TIME_GRID_BITS
        # The snap is a sub-quantum perturbation of the drawn value.
        assert abs(snapped - value) <= 2.0 ** -(TIME_GRID_BITS + 1)

    def test_builtin_random_draws_are_on_grid(self):
        model = RandomDelay(seed=7)
        for n in range(25):
            value = model._draw(f"g:{n}", *model.gate_range)
            assert dyadic_shift(value) <= TIME_GRID_BITS
            assert model.gate_range[0] <= value <= model.gate_range[1]

    def test_ungridded_draws_do_not_negotiate(self):
        model = RandomDelay(seed=7, grid_bits=None)
        values = [
            model._draw(f"g:{n}", *model.gate_range) for n in range(8)
        ]
        assert negotiate_time_quantum(values) is None


# ----------------------------------------------------------------------
# Path equivalence on random netlists
# ----------------------------------------------------------------------
@st.composite
def grid_stimuli(draw, nl, bits=6):
    """A monotone pin schedule on the dyadic grid ``2**-bits``."""
    schedule = []
    ticks = 0
    scale = 1 << bits
    for _ in range(draw(st.integers(1, 10))):
        ticks += draw(st.integers(1, 4 * scale))
        net = draw(st.sampled_from(nl.primary_inputs))
        schedule.append((ticks / scale, net, draw(st.integers(0, 1))))
    return schedule


def _model_factory(name, seed):
    return lambda: delay_model(name, seed, None)


def _run_ring(nl, schedule, delays_factory, inertial):
    """Like :func:`run_one` but also returns the kernel telemetry."""
    sim = Simulator(nl, delays=delays_factory(), inertial=inertial)
    sim.watch(*sorted(nl.nets()))
    for at, net, value in schedule:
        sim.schedule(net, value, at=at)
    end = sim.run(until=60.0)
    values = {net: sim.value(net) for net in nl.nets()}
    return (sim.trace, values, end), sim.kernel_stats


def _assert_path(stats, schedule):
    """On-tick stimuli keep a fast path; the first off-tick one demotes
    the ring to the heap, exactly once."""
    scale = 2 ** stats["shift"]
    if all((at * scale).is_integer() for at, _net, _value in schedule):
        assert stats["path"] in FAST_PATHS
        assert not stats["migrations"]
    else:
        assert stats["path"] == "heap"
        assert stats["migrations"] == {"off-grid-stimulus": 1}


class TestFastPathEquivalence:
    @given(
        data=st.data(),
        name=st.sampled_from(sorted(DELAY_MODELS)),
        seed=st.integers(0, 5),
        inertial=st.booleans(),
    )
    @SETTINGS
    def test_every_builtin_model_trace_identical(
        self, data, name, seed, inertial
    ):
        """Fractional built-in silicon runs fast and bit-identical."""
        nl = data.draw(netlists())
        schedule = data.draw(grid_stimuli(nl))
        factory = _model_factory(name, seed)
        ring, stats = _run_ring(nl, schedule, factory, inertial)
        compiled = run_one(COMPILED, nl, schedule, factory, inertial)
        assert ring[0] == compiled[0]  # NetChange streams
        assert ring[1] == compiled[1]  # final values
        assert ring[2] == compiled[2]  # simulation time
        _assert_path(stats, schedule)

    @given(data=st.data(), seed=st.integers(0, 5), inertial=st.booleans())
    @SETTINGS
    def test_ungridded_silicon_runs_on_the_heap(
        self, data, seed, inertial
    ):
        """No practical quantum → the plain heap loop, still pinned."""
        nl = data.draw(netlists())
        schedule = data.draw(stimuli(nl))
        factory = lambda: RandomDelay(seed=seed, grid_bits=None)
        ring, stats = _run_ring(nl, schedule, factory, inertial)
        compiled = run_one(COMPILED, nl, schedule, factory, inertial)
        assert ring[0] == compiled[0]
        assert ring[1] == compiled[1]
        assert ring[2] == compiled[2]
        assert stats["path"] == "heap"
        assert stats["shift"] == 0

    @given(data=st.data(), seed=st.integers(0, 5), inertial=st.booleans())
    @SETTINGS
    def test_off_grid_stimulus_migrates_losslessly(
        self, data, seed, inertial
    ):
        """An off-tick external event mid-run demotes ticks → heap
        without disturbing the stream (the :func:`stimuli` times are
        millisecond-rounded, far off the dyadic grid)."""
        nl = data.draw(netlists())
        schedule = data.draw(stimuli(nl))
        factory = _model_factory("loop-safe", seed)
        ring, stats = _run_ring(nl, schedule, factory, inertial)
        compiled = run_one(COMPILED, nl, schedule, factory, inertial)
        assert ring[0] == compiled[0]
        assert ring[1] == compiled[1]
        assert ring[2] == compiled[2]
        _assert_path(stats, schedule)


class TestOverflowFallback:
    def _netlist(self):
        from repro.netlist.gates import GateType
        from repro.netlist.netlist import Netlist

        nl = Netlist("horizon")
        nl.add_input("a")
        nl.add_gate("g0", GateType.BUF, ["a"], "w0")
        return nl

    def test_beyond_horizon_demotes_to_heap_with_provenance(self):
        """Scheduling past the tick-exactness horizon is the documented
        heap fallback — recorded in ``migrations``, results pinned."""
        nl = self._netlist()
        factory = _model_factory("loop-safe", 3)
        # 2**53 time units overflows the tick horizon at any shift.
        schedule = [(1.0, "a", 1), (2.0**53, "a", 0)]
        ring, stats = _run_ring(nl, schedule, factory, True)
        compiled = run_one(COMPILED, nl, schedule, factory, True)
        # run_one stops at until=60.0; the far event stays queued, but
        # the migration must already have happened at schedule time.
        assert ring[0] == compiled[0]
        assert ring[1] == compiled[1]
        assert stats["path"] == "heap"
        assert stats["migrations"].get("overflow", 0) >= 1

    def test_within_horizon_stays_on_ticks(self):
        nl = self._netlist()
        factory = _model_factory("loop-safe", 3)
        _, stats = _run_ring(nl, [(1.0, "a", 1)], factory, True)
        assert stats["path"] == "ticks"
        assert 0 < stats["shift"] <= TIME_GRID_BITS
        assert not stats["migrations"]


class TestCallbackStimulus:
    def test_off_grid_schedule_from_stop_when_leaves_the_grid(self):
        """A ``stop_when`` callback may schedule anything, as on the
        compiled kernel: an off-grid event just turns replay off."""
        nl = TestOverflowFallback()._netlist()
        factory = _model_factory("loop-safe", 3)

        def drive(kernel):
            sim = kernel(nl, delays=factory())
            sim.watch(*sorted(nl.nets()))
            sim.schedule("a", 1, at=1.0)
            fired = []

            def stop_when(sim):
                if not fired:
                    fired.append(sim.now)
                    sim.schedule("a", 0, at=sim.now + 0.1)
                return False

            end = sim.run(until=60.0, stop_when=stop_when)
            values = {net: sim.value(net) for net in nl.nets()}
            return (sim.trace, values, end), sim.kernel_stats

        ring, stats = drive(Simulator)
        compiled, _ = drive(COMPILED)
        assert ring == compiled
        assert [change.value for change in ring[0] if change.net == "a"] \
            == [1, 0]
        assert stats["path"] == "heap"
        assert stats["migrations"] == {"off-grid-stimulus": 1}


# ----------------------------------------------------------------------
# Campaign provenance and telemetry
# ----------------------------------------------------------------------
class TestCampaignProvenance:
    def _campaign(self, engine="ring", models=("unit", "loop-safe")):
        from repro.sim.campaign import ValidationCampaign

        return ValidationCampaign(
            sweep=2, steps=8, delay_models=models, engine=engine
        ).run_names(["traffic"])

    def test_every_cell_reports_a_fast_path(self):
        report = self._campaign(models=tuple(DELAY_MODELS))
        for cell in report.cells:
            assert cell.engine_path is not None
            assert set(cell.engine_path.split("+")) <= FAST_PATHS

    def test_kernel_paths_rollup_matches_cells(self):
        report = self._campaign()
        rollup = report.kernel_paths()
        assert sum(rollup.values()) == len(report.cells)
        assert set(rollup) <= FAST_PATHS
        assert any(
            line.strip().startswith("kernel paths:")
            for line in report.describe().splitlines()
        )

    def test_compiled_cells_report_the_heap(self):
        report = self._campaign(engine="compiled")
        assert {cell.engine_path for cell in report.cells} == {"heap"}

    def test_reference_cells_have_no_telemetry(self):
        report = self._campaign(engine="reference", models=("unit",))
        assert {cell.engine_path for cell in report.cells} == {None}
        assert report.kernel_paths() == {"?": len(report.cells)}

    def test_canonical_payload_carries_engine_path(self):
        from repro.store.canonical import canonical_campaign_payload

        report = self._campaign()
        payload = canonical_campaign_payload(report)
        for cell in payload["cells"]:
            assert cell["engine_path"] in FAST_PATHS
            assert "kernel" in cell["summary"]

    def test_summary_kernel_round_trips(self):
        from repro.sim.monitors import ValidationSummary

        report = self._campaign()
        summary = report.cells[0].summary
        assert summary.kernel is not None
        restored = ValidationSummary.from_dict(summary.to_dict())
        assert restored.kernel == summary.kernel
        assert restored.to_dict() == summary.to_dict()

    def test_merge_kernel_aggregates_walks(self):
        from repro.sim.monitors import ValidationSummary

        summary = ValidationSummary()
        assert summary.kernel is None
        summary.merge_kernel({"paths": {"ticks": 1}, "migrations": {}})
        summary.merge_kernel(
            {"paths": {"heap": 1}, "migrations": {"overflow": 1}}
        )
        summary.merge_kernel(None)  # reference walks contribute nothing
        assert summary.kernel == {
            "paths": {"heap": 1, "ticks": 1},
            "migrations": {"overflow": 1},
        }

    def test_stored_front_counters_read_back_without_them(self):
        """A summary stored while the ring still counted batched fronts
        reads back in today's ``{paths, migrations}`` form, so a warm
        store replays byte-identically to a fresh run."""
        from repro.sim.monitors import ValidationSummary

        fresh = self._campaign().cells[0].summary
        stored = fresh.to_dict()
        stored["kernel"] = {**stored["kernel"], "fronts": 7,
                            "front_events": 61}
        restored = ValidationSummary.from_dict(stored)
        assert restored.kernel == fresh.kernel
        assert set(restored.kernel) == {"paths", "migrations"}
        assert restored.to_dict() == fresh.to_dict()

    def test_telemetry_is_partition_independent(self):
        """The wire form must not leak in-process warmth: running the
        same cell twice in one process (warm plan caches) and in a
        fresh order must serialise identically."""
        first = self._campaign()
        second = self._campaign()
        payload = [c.summary.to_dict() for c in first.cells]
        assert payload == [c.summary.to_dict() for c in second.cells]


class TestPinnedAnomaliesOnEveryPath:
    """The two campaign anomalies survive the engine swap exactly.

    ``tests/sim/test_anomalies.py`` pins the exact failing cell sets on
    the default engine (now ``ring``); here the ring and compiled
    engines are required to agree failure for failure on both anomaly
    cells, so no fast path can shift a pinned anomaly.
    """

    def _failing_points(self, report):
        return {
            (cell.seed, cycle.index)
            for cell in report.cells
            for cycle in cell.summary.cycles
            if not cycle.clean
        }

    def _both(self, name, model, sweep, steps):
        from repro.sim.campaign import ValidationCampaign

        reports = {}
        for engine in ("ring", "compiled"):
            reports[engine] = ValidationCampaign(
                sweep=sweep,
                steps=steps,
                delay_models=(model,),
                engine=engine,
            ).run_names([name])
        return reports

    def test_train11_hostile_cells_identical(self):
        reports = self._both("train11", "hostile", sweep=3, steps=30)
        points = self._failing_points(reports["ring"])
        assert points == self._failing_points(reports["compiled"])
        assert points  # the anomaly is present, not vacuously equal
        assert {seed for seed, _ in points} == {2}

    def test_lion9_loop_safe_cells_identical(self):
        reports = self._both("lion9", "loop-safe", sweep=1, steps=5)
        points = self._failing_points(reports["ring"])
        assert points == self._failing_points(reports["compiled"])
        assert points
        assert {seed for seed, _ in points} == {0}
