"""Tests of the benchmark itself: its checks, its tracer, its metric names.

    python3 -m pytest perfbench -q

Every output check must report a failure when handed a deliberately
wrong expectation, and every metric the benchmark prints must be one
BENCHMARK.json declares, with a well-formed name.
"""

import importlib.util
import json
import random
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.bench.suite import benchmark  # noqa: E402
from repro.corpus import families  # noqa: E402
from repro.pipeline.manager import PassManager  # noqa: E402
from repro.service.fakes import FakeObjectStoreServer  # noqa: E402
from repro.store.keys import table_digest  # noqa: E402
from repro.store.net import ObjectStoreBackend  # noqa: E402
from repro.store.store import ResultStore  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PINS = json.loads(run.EXPECTED.read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed_and_unique():
    names = [
        metric["name"]
        for kind in ("end_to_end", "per_layer")
        for metric in DECLARED[kind]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)


def _run(**fields):
    return workloads.Run(
        work=fields.pop("work", 1),
        latencies=fields.pop("latencies", {"a": 0.5, "b": 1.0}),
        outputs=fields.pop("outputs", {"a": "x", "b": "y"}),
        **fields,
    )


def test_computed_metrics_are_exactly_the_declared_ones():
    span = hostspeed.Span(wall=1.0, cpu=1.0)
    it = run.Iteration(span, span, _run(), {}, spans.Tracer())
    declared = {
        kind: {metric["name"] for metric in DECLARED[kind]}
        for kind in ("end_to_end", "per_layer")
    }
    # The JSON carries the declared end-to-end metrics; the report adds
    # item_p50_ms, too noisy on synth-scaling to bound.
    assert set(run.end_to_end([it], [span], 1.0)) == (
        declared["end_to_end"] | {"item_p50_ms"}
    )
    assert set(run.per_layer([it], [it], 1.0)) == declared["per_layer"]


def test_scaling_divides_cpu_time_and_keeps_waiting():
    # 1 s of CPU on a host twice as slow as the reference, 2 s waiting.
    span = hostspeed.Span(wall=3.0, cpu=1.0)
    assert span.scaled(2.0) == pytest.approx(2.5)
    it = run.Iteration(span, span, _run(latencies={"a": 0.3, "b": 0.6}), {})
    assert run.item_times([it], 2.0) == pytest.approx([0.25, 0.5])
    # CPU time of a second thread never counts as more than the wall time.
    assert hostspeed.Span(wall=1.0, cpu=1.5).scaled(2.0) == 0.5


def test_host_speed_is_reference_time_over_nominal(monkeypatch):
    clock = iter([0.0, 1.0, 4.0, 10.0])  # deadline, start, end, check
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(hostspeed, "REFERENCE", ((lambda: None, 1.5),))
    host = hostspeed.HostSpeed()
    host.sample(0.0)  # one round: the loop took 3 s of its nominal 1.5 s
    assert host.slowdown == 2.0


def test_synthesis_digest_check_catches_a_wrong_pin():
    workload = workloads.WORKLOADS["synth-scaling"]
    result = PassManager().run(benchmark("lion"))
    got = workload.finish(None, [("lion", 0.1, result)])
    pins = {"lion": PINS["synth-scaling"]["lion"]}
    assert workloads.check(got, pins, frozenset()) == {}
    wrong = {"lion": "0" * 16}
    assert set(workloads.check(got, wrong, frozenset())) == {"lion"}


def test_missing_and_unpinned_items_fail():
    failures = workloads.check(_run(), {"a": "x", "c": "z"}, frozenset())
    assert set(failures) == {"b", "c"}


def test_campaign_flag_check_catches_a_wrong_dirty_set():
    dirty = workloads.CAMPAIGN_DIRTY
    got = _run(outputs={}, flagged=dirty)
    assert workloads.check(got, {}, dirty) == {}
    wrong = dirty - {"lion9/skewed/s0"} | {"train11/corner/s1"}
    assert set(workloads.check(got, {}, wrong)) == {
        "lion9/skewed/s0", "train11/corner/s1",
    }


def test_fuzz_check_catches_an_unexpected_finding():
    workload = workloads.WORKLOADS["fuzz-corpus"]
    tables = workloads.corpus_tables(random.Random(0))[:2]
    got = workload.finish(tables, workload.run(tables))
    assert set(got.outputs) == {table.name for table in tables}
    assert workloads.check(got, got.outputs, frozenset()) == {}
    wrong = frozenset({tables[0].name})
    assert set(workloads.check(got, got.outputs, wrong)) == {tables[0].name}


@pytest.fixture
def store_state():
    server = FakeObjectStoreServer().start()
    tables = workloads.corpus_tables(random.Random(0))[:2]
    yield server, ResultStore(ObjectStoreBackend(server.url)), tables
    server.stop()


def test_store_check_passes_warm_hits_and_flags_a_cold_replay(store_state):
    workload = workloads.WORKLOADS["store-replay"]
    cold, warm = workload.run(store_state)
    got = workload.finish(store_state, [cold, warm])
    assert got.flagged == frozenset()
    assert got.counts["store.hits"] == 2
    # A "warm" pass that recomputed is wrong even with identical bytes.
    replayed = workload.finish(store_state, [cold, cold])
    assert replayed.flagged == {table.name for table in store_state[2]}
    assert workloads.check(replayed, got.outputs, frozenset())


def test_traced_outputs_must_match_untraced():
    untraced = _run(flagged=frozenset({"a"}))
    assert run.differences(untraced, untraced) == {}
    traced = _run(outputs={"a": "x", "b": "changed"})
    assert set(run.differences(untraced, traced)) == {"a", "b"}


def test_self_time_excludes_nested_layers():
    tracer = spans.Tracer()
    clock = iter([0.0, 1.0, 3.0, 10.0])
    original = spans.perf_counter
    spans.perf_counter = lambda: next(clock)
    try:
        tracer.call("outer", lambda: tracer.call("inner", lambda: None))
    finally:
        spans.perf_counter = original
    assert tracer.inclusive == {"outer": 10.0, "inner": 2.0}
    assert tracer.self_time == {"outer": 8.0, "inner": 2.0}


def test_timed_kernel_follows_a_rebound_method():
    class Kernel:
        now = 0.0

        def run(self):
            return "ring"

    kernel = Kernel()
    timed = spans._TimedKernel(kernel, spans.Tracer())
    assert timed.run() == "ring"
    kernel.run = lambda: "heap"  # what a path migration does
    assert timed.run() == "heap"


def test_instrument_restores_every_entry_point():
    before = [
        (owner, name, owner.__dict__[name])
        for owner, name, _ in spans._patch_points(spans.Tracer())
    ]
    with spans.instrument(spans.Tracer()):
        assert any(owner.__dict__[name] is not fn for owner, name, fn in before)
    assert all(owner.__dict__[name] is fn for owner, name, fn in before)


def test_chain_tables_match_bench_logic():
    path = HERE.parent / "benchmarks" / "bench_logic.py"
    if not path.exists():
        pytest.skip("benchmarks/bench_logic.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("bench_logic", path)
    bench_logic = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_logic)
    for positions in workloads.CHAIN_POSITIONS:
        assert table_digest(workloads.random_flow_table(positions)) == (
            table_digest(bench_logic.random_flow_table(positions))
        )


def test_corpus_has_five_families_of_twenty():
    keys = families.build_corpus(count=workloads.CORPUS_COUNT)
    assert len(keys) == 100
    assert len(PINS["fuzz-corpus"]) == len(PINS["store-replay"]) == 100
