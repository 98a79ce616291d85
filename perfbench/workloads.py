"""The four workloads: inputs, the timed phase, and the outputs to check.

Each workload has the same shape.  ``setup(rng)`` builds fresh inputs
(set-up time), ``run(state)`` is the timed phase, ``teardown(state)``
releases what set-up opened, and ``finish(state, raw)`` turns what the
timed phase produced into a :class:`Run`: one output digest per item,
the items flagged as anomalous, and per-item latencies.

The items of every workload are fixed; the seed only fixes the order in
which they run.  The cost of a generated chain table varies too much
with its generator seed (the 16-state chain takes 4.2-7.8 s across six
seeds), and fixed items let every output be checked against a pinned
digest in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field

from repro.bench.suite import _chain_machine, benchmark, load_all
from repro.core.serialize import canonical_result_dict
from repro.corpus import families, fuzz
from repro.netlist import fantom
from repro.pipeline.batch import BatchRunner
from repro.pipeline.manager import PassManager
from repro.pipeline.options import SynthesisOptions
from repro.service.fakes import FakeObjectStoreServer
from repro.sim import harness
from repro.sim.campaign import ENGINES, default_engine, delay_model
from repro.store.canonical import canonical_batch_payload, canonical_json
from repro.store.net import ObjectStoreBackend
from repro.store.store import ResultStore

#: Generator seed of the chain tables: the default of
#: ``benchmarks/bench_logic.py``, so rows compare with BENCH_logic.json.
CHAIN_SEED = 20260729
#: 13-15 states: ``assign`` takes over 95% of each.  The 16-state chain
#: alone takes 4.5-5.5 s on a 2-vCPU VM, which leaves too few iterations
#: in a run for a steady median; the 17-state chain takes about 13 s.
CHAIN_POSITIONS = (13, 14, 15)

CAMPAIGN_TABLES = ("lion9", "train11")
CAMPAIGN_MODELS = ("loop-safe", "skewed", "hostile", "corner")
CAMPAIGN_SEEDS = (0, 1, 2)
CAMPAIGN_STEPS = 800
#: The characterised anomalies: the lion9 fsv/G oscillation and the
#: train11 hostile-skew failures (ROADMAP items 3 and 4).
CAMPAIGN_DIRTY = frozenset(
    {"lion9/loop-safe/s0", "lion9/skewed/s0", "train11/hostile/s2"}
)

#: Seeds per family of the corpus workloads: 5 families, 100 machines.
CORPUS_COUNT = 20


def digest(payload) -> str:
    """Short content digest of a JSON-able payload."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def random_flow_table(positions: int, seed: int = CHAIN_SEED):
    """The seeded chain table of ``benchmarks/bench_logic.py``."""
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


def corpus_tables(rng: random.Random) -> list:
    tables = [
        families.generate(key)
        for key in families.build_corpus(count=CORPUS_COUNT)
    ]
    rng.shuffle(tables)
    return tables


@dataclass
class Run:
    """What one timed phase produced, reduced to checkable facts."""

    #: Units of work behind ``items_per_s``.
    work: int
    #: Item name -> seconds, the samples behind ``item_p50_ms``/``item_p90_ms``.
    latencies: dict[str, float]
    #: Item name -> digest of its output.
    outputs: dict[str, str]
    #: Items whose output is anomalous (dirty cells, findings, misses).
    flagged: frozenset[str] = frozenset()
    #: Layer counters read from the program's own objects after the run.
    counts: dict[str, int] = field(default_factory=dict)
    #: Figures named after the workload's own unit, for the report.
    headline: dict[str, float] = field(default_factory=dict)


class SynthScaling:
    """Cold synthesis of the paper suite and the 13-15 state chains."""

    name = "synth-scaling"
    unit = "tables"
    item = "table"
    expected_flags = frozenset()

    def setup(self, rng):
        items = [
            (name, table, SynthesisOptions())
            for name, table in load_all().items()
        ]
        items += [
            (f"rand{p}", random_flow_table(p), SynthesisOptions(minimize=False))
            for p in CHAIN_POSITIONS
        ]
        rng.shuffle(items)
        return items

    def run(self, items):
        manager = PassManager()  # no stage cache, no store
        done = []
        for name, table, options in items:
            start = time.perf_counter()
            result = manager.run(table, options)
            done.append((name, time.perf_counter() - start, result))
        return done

    def teardown(self, items):
        pass

    def finish(self, items, done) -> Run:
        latencies = {name: seconds for name, seconds, _ in done}
        return Run(
            work=len(done),
            latencies=latencies,
            outputs={
                name: digest(canonical_result_dict(result.to_dict()))
                for name, _, result in done
            },
            headline={"synth_max_s": max(latencies.values())},
        )


class Campaign:
    """Monte-Carlo validation of lion9 and train11 on fresh machines."""

    name = "campaign"
    unit = "cycles"
    item = "cell"
    expected_flags = CAMPAIGN_DIRTY

    def setup(self, rng):
        manager = PassManager()
        cells = []
        for name in CAMPAIGN_TABLES:
            machine = fantom.build_fantom(manager.run(benchmark(name)))
            machine.netlist.compile()
            cells += [
                (name, machine, model, seed)
                for model in CAMPAIGN_MODELS
                for seed in CAMPAIGN_SEEDS
            ]
        rng.shuffle(cells)
        return cells

    def run(self, cells):
        factory = ENGINES[default_engine()]
        walks = {}
        done = []
        for name, machine, model, seed in cells:
            if (name, seed) not in walks:
                table = machine.result.table
                walk = harness.random_legal_walk(
                    table, CAMPAIGN_STEPS, seed=seed
                )
                walks[name, seed] = (walk, harness.expected_walk(table, walk))
            walk, expected = walks[name, seed]
            start = time.perf_counter()
            summary = harness.validate_walk(
                machine,
                walk,
                delays=delay_model(model, seed, machine),
                simulator_factory=factory,
                expected=expected,
            )
            done.append(
                (f"{name}/{model}/s{seed}", time.perf_counter() - start, summary)
            )
        return done

    def teardown(self, cells):
        pass

    def finish(self, cells, done) -> Run:
        return Run(
            work=sum(summary.total for _, _, summary in done),
            latencies={cell: seconds for cell, seconds, _ in done},
            outputs={
                cell: digest([cycle.to_dict() for cycle in summary.cycles])
                for cell, _, summary in done
            },
            flagged=frozenset(
                cell for cell, _, summary in done if not summary.all_clean
            ),
        )


class FuzzCorpus:
    """Differential fuzzing of the 100-machine corpus, no store."""

    name = "fuzz-corpus"
    unit = "machines"
    item = "machine"
    expected_flags = frozenset()

    def setup(self, rng):
        return corpus_tables(rng)

    def run(self, tables):
        start = time.perf_counter()
        stamps = []
        report = fuzz.run_fuzz(
            tables,
            progress=lambda key, findings: stamps.append(
                (key, time.perf_counter(), findings)
            ),
        )
        return start, stamps, report

    def teardown(self, tables):
        pass

    def finish(self, tables, raw) -> Run:
        start, stamps, report = raw
        ends = [start] + [stamp for _, stamp, _ in stamps]
        return Run(
            work=report.machines,
            latencies={
                key: end - begin
                for (key, end, _), begin in zip(stamps, ends)
            },
            outputs={
                key: digest([finding.to_dict() for finding in findings])
                for key, _, findings in stamps
            },
            flagged=frozenset(finding.key for finding in report.findings),
            counts={
                "corpus.findings": len(report.findings)
                + len(report.known_findings)
            },
        )


class StoreReplay:
    """Cold then warm batch over a fresh object store on loopback."""

    name = "store-replay"
    unit = "items"
    item = "warm_hit"
    expected_flags = frozenset()

    def setup(self, rng):
        server = FakeObjectStoreServer().start()
        store = ResultStore(ObjectStoreBackend(server.url))
        return server, store, corpus_tables(rng)

    def run(self, state):
        _, store, tables = state
        runner = BatchRunner(jobs=1, store=store)
        passes = []
        for _ in ("cold", "warm"):
            items = []
            for table in tables:
                start = time.perf_counter()
                (item,) = runner.iter_results([table])
                items.append((item, time.perf_counter() - start))
            passes.append(items)
        return passes

    def teardown(self, state):
        state[0].stop()

    def finish(self, state, passes) -> Run:
        _, store, _ = state
        cold, warm = passes
        outputs = {}
        flagged = set()
        for (cold_item, _), (warm_item, _) in zip(cold, warm):
            payload = canonical_batch_payload([cold_item])
            outputs[cold_item.name] = digest(payload)
            if (
                not cold_item.ok
                or cold_item.store_hit
                or not warm_item.store_hit
                or canonical_json(canonical_batch_payload([warm_item]))
                != canonical_json(payload)
            ):
                flagged.add(cold_item.name)
        telemetry = store.backend.telemetry
        cold_ms = sorted(seconds * 1e3 for _, seconds in cold)
        return Run(
            work=len(cold) + len(warm),
            latencies={item.name: seconds for item, seconds in warm},
            outputs=outputs,
            flagged=frozenset(flagged),
            counts={
                "store.hits": store.hits,
                "store.rejected": store.rejected,
                "transport.requests": telemetry.total("ops"),
                "transport.retries": telemetry.total("retries"),
                "transport.faults": telemetry.total("faults"),
            },
            headline={"cold_item_p50_ms": cold_ms[len(cold_ms) // 2]},
        )


WORKLOADS = {
    workload.name: workload
    for workload in (SynthScaling(), Campaign(), FuzzCorpus(), StoreReplay())
}


def check(run: Run, pins: dict[str, str], expected_flags) -> dict[str, str]:
    """Item -> why it failed, for every item that differs from its pinned
    output digest or whose anomaly flag differs from ``expected_flags``.
    A pinned item the run never produced fails too."""
    failures = {}
    for item in sorted(pins.keys() | run.outputs.keys()):
        want, got = pins.get(item), run.outputs.get(item)
        if want != got:
            failures[item] = f"output {got} != pinned {want}"
    for item in sorted(run.flagged ^ expected_flags):
        state = "flagged" if item in run.flagged else "not flagged"
        failures.setdefault(item, f"unexpectedly {state}")
    return failures
