"""Command-line front end: ``seance`` (or ``python -m repro``).

Every subcommand routes through :mod:`repro.api` — loading via
``api.load`` (benchmark names, KISS2, flow-table JSON), configuration
via :class:`~repro.pipeline.spec.PipelineSpec` — so a CLI run is
reproducible from a spec file alone.

``seance synth SPEC.kiss2``
    Run the full pipeline on a flow table and print the synthesis
    report (equations, hazard lists, Table-1 depths).  ``--spec
    SPEC.json`` loads a pipeline spec; ``--pass STAGE:VARIANT``
    substitutes registered pass variants (repeatable); ``--emit-spec``
    prints the resolved spec JSON instead of synthesising.

``seance table1``
    Regenerate paper Table 1 over the benchmark suite, side by side with
    the paper's reported values.

``seance validate SPEC.kiss2``
    Build the gate-level FANTOM machine and dynamically validate it
    against the flow-table semantics under randomised delays;
    ``--jobs`` spreads the campaign's cells over worker processes.

``seance batch NAME|FILE ...``
    Synthesise many machines serially through the pass pipeline, with
    a deterministic, input-ordered report.  With no names, runs the
    full built-in suite.  One in-memory stage cache spans the batch, so
    a repeated table reuses every stage; ``--store`` reuses whole
    results across invocations.  ``--json`` includes the per-pass
    telemetry (wall clock + cache hits) of every run.
    ``--spec``/``--pass`` work as in ``synth``.

``seance shard plan|run|merge``
    Split a batch matrix (default) or a validation campaign
    (``--campaign``) into N deterministic shards by content hash, run
    one shard's work units into a shared ``--store`` directory
    (``seance shard run --shard i/N --store DIR``), and reassemble the
    ordered result stream byte-identically to a single-process run
    (``seance shard merge``).  Shards can run on different machines
    against a shared store; the merge fails loudly, naming the owning
    shard of every missing unit.  Shards (or ``seance work``) are how a
    batch spreads over processes or machines.

``--store LOC`` (on ``synth``, ``batch``, ``validate``)
    Content-addressed result archive: repeat invocations with the same
    (table, spec, workload) short-circuit synthesis and simulation
    entirely — ``"store_hit"`` in the JSON telemetry, zero pipeline
    passes executed.

``seance serve`` / ``seance submit``
    The service fabric's front door and its client: ``serve`` accepts
    table+spec submissions over HTTP, dedupes them against the store
    (completed work), against each other (in-flight work), and either
    synthesises misses locally or fans them to a work queue; ``submit``
    sends tables to a running front door and can emit the canonical
    stream (``--canonical``) byte-identical to ``seance batch --json
    --canonical``.

``seance queue publish|status`` / ``seance work``
    The durable work-stealing queue over a shared store: ``publish``
    enumerates a batch matrix or validation campaign into leased work
    units, ``work`` runs a worker that claims, heartbeats, and steals
    lapsed leases, and ``status`` shows occupancy.

``seance store verify|gc|serve-fake``
    Store lifecycle: offline envelope re-verification, age/orphan/
    rejected-blob eviction, and the in-process fake object store for
    smokes and CI.

``--store LOC`` everywhere accepts a directory path or an
``http(s)://`` object-store URL; any other ``scheme://``
location is an error (exit 2).

``seance passes``
    List the registered pass names a spec or ``--pass`` can use.

``seance bench-list`` / ``seance show NAME``
    Enumerate the built-in benchmarks / print one as KISS2 text.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, api
from .bench import PAPER_TABLE1, TABLE1_BENCHMARKS, benchmark, benchmark_names
from .bench import kiss_source, synthesize_suite
from .errors import ReproError
from .netlist.fantom import build_fantom
from .pipeline import BatchRunner, PipelineSpec
from .pipeline.registry import DEFAULT_PIPELINE, base_name, registered_passes


def _engine_choices() -> list[str]:
    """Valid ``--engine`` names, straight from the kernel registry.

    Deriving the argparse choices from :data:`repro.sim.campaign.ENGINES`
    keeps the CLI in lockstep with the registry: an unknown name gets
    argparse's clear choices error, never a ``KeyError`` downstream.
    """
    from .sim.campaign import ENGINES

    return sorted((*ENGINES, "reference"))


def _load_table(spec: str):
    return api.load_table(spec)


def _store_policy(args: argparse.Namespace):
    """The transport RetryPolicy the ``--retry``/``--timeout`` knobs
    describe, or None when neither was given (URL query knobs —
    ``?retry=N&timeout=S`` — still apply either way)."""
    retry = getattr(args, "store_retry", None)
    timeout = getattr(args, "store_timeout", None)
    if retry is None and timeout is None:
        return None
    from .service.resilience import RetryPolicy

    return RetryPolicy().merged(retries=retry, timeout=timeout)


def _open_store(args: argparse.Namespace):
    """The ResultStore of a ``--store LOC`` flag (None when absent).

    ``LOC`` is anything :func:`~repro.store.backend.resolve_backend`
    accepts: a directory path or an ``http(s)://`` object store.
    Networked locations run under the transport
    policy of ``--retry``/``--timeout`` when given.
    """
    from .store import ResultStore

    if not getattr(args, "store", None):
        return None
    try:
        return ResultStore(args.store, policy=_store_policy(args))
    except OSError as error:
        raise ReproError(
            f"cannot use --store {args.store!r}: {error}"
        ) from error


def _read_token_file(path: str | None) -> str | None:
    """The submission token a ``--token-file`` names (stripped), or
    None when the flag is absent."""
    if not path:
        return None
    try:
        token = Path(path).read_text().strip()
    except OSError as error:
        raise ReproError(
            f"cannot read --token-file {path!r}: {error}"
        ) from error
    if not token:
        raise ReproError(f"--token-file {path!r} is empty")
    return token


def _build_spec(args: argparse.Namespace) -> PipelineSpec:
    """The effective PipelineSpec of a synth/batch invocation.

    Precedence: the ``--spec`` file (or the default spec), then option
    flags *that were actually given* (``--reduce-mode`` defaults to the
    unset sentinel, so an explicit ``--reduce-mode split`` overrides a
    spec that says joint; the boolean switches can only be raised), then
    ``--pass`` substitutions.
    """
    spec = (
        PipelineSpec.load(args.pipeline_spec)
        if args.pipeline_spec
        else PipelineSpec()
    )
    overrides = {}
    if args.no_minimize:
        overrides["minimize"] = False
    if args.no_fsv:
        overrides["hazard_correction"] = False
    if args.reduce_mode is not None:
        overrides["reduce_mode"] = args.reduce_mode
    if overrides:
        spec = spec.with_options(**overrides)
    if args.passes:
        spec = spec.substitute(*args.passes)
    return spec


def cmd_synth(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    if args.emit_spec:
        print(spec.to_json())
        return 0
    session = api.load(args.spec, spec=spec, store=_open_store(args))
    result, report = session.run_with_report()
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(result.describe())
    if report.store_hit:
        print("  store      : served whole from the result store "
              "(0 passes executed)")
    if args.hazards:
        print()
        print(result.analysis.describe(result.spec))
    if args.encoding:
        print()
        print(result.assignment.encoding.describe())
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    results = synthesize_suite(TABLE1_BENCHMARKS)
    print(
        f"{'Benchmark':14s} {'fsv':>4s} {'Y':>4s} {'Total':>6s}   "
        f"{'paper fsv/Y/total':>18s}"
    )
    for name in TABLE1_BENCHMARKS:
        _, fsv_d, y_d, total = results[name].table1_row()
        paper = PAPER_TABLE1[name]
        print(
            f"{name:14s} {fsv_d:4d} {y_d:4d} {total:6d}   "
            f"{paper[0]:8d}/{paper[1]}/{paper[2]}"
        )
    return 0


def _build_campaign(args: argparse.Namespace, **settings):
    """The ValidationCampaign of a ``validate``, ``shard --campaign`` or
    ``queue publish --campaign`` command line; ``settings`` carries the
    verb's own extras (``jobs``, ``store``, ``spec``)."""
    from .sim.campaign import ValidationCampaign

    requested = list(args.delay_models or [])
    if getattr(args, "skewed", False):  # validate's alias; composes
        requested.append("skewed")
    return ValidationCampaign(
        sweep=args.sweep,
        steps=args.steps,
        delay_models=tuple(dict.fromkeys(requested)) or ("loop-safe",),
        base_seed=args.seed,
        use_fsv=not args.no_fsv,
        engine=args.engine,
        **settings,
    )


def cmd_validate(args: argparse.Namespace) -> int:
    tables = [_load_table(spec) for spec in args.specs]
    campaign = _build_campaign(
        args, jobs=args.jobs, store=_open_store(args)
    )
    report = campaign.run(tables)
    if args.json:
        from .store import canonical_campaign_payload, canonical_json

        payload = canonical_campaign_payload(report)
        payload["all_clean"] = report.all_clean
        payload["store_hits"] = report.store_hits
        print(canonical_json(payload))
        return 0 if report.all_clean else 1
    print(report.describe())
    if report.all_clean:
        print("machine is clean: states, outputs and SOC all verified")
        return 0
    print("machine FAILED validation")
    return 1


def cmd_export(args: argparse.Namespace) -> int:
    from .netlist.verilog import machine_to_verilog

    table = _load_table(args.spec)
    result = api.synthesize(table)
    machine = build_fantom(result, use_fsv=not args.no_fsv)
    text = machine_to_verilog(machine)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    specs = args.specs or list(benchmark_names())
    tables = [_load_table(spec) for spec in specs]
    spec = _build_spec(args)
    items = BatchRunner(spec=spec, store=_open_store(args)).run(tables)
    failures = [item for item in items if not item.ok]

    if args.canonical:
        from .store import canonical_batch_payload, canonical_json

        print(canonical_json(canonical_batch_payload(items)))
    elif args.json:
        import json

        payload = [
            {
                "name": item.name,
                "ok": item.ok,
                "error": item.error,
                "seconds": item.seconds,
                "store_hit": item.store_hit,
                "cached_stages": list(item.cache_hits),
                "passes": [
                    {
                        "name": event.name,
                        "seconds": event.seconds,
                        "cached": event.cache_hit,
                    }
                    for event in item.events
                ],
                "result": item.result.to_dict() if item.ok else None,
            }
            for item in items
        ]
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{'Benchmark':14s} {'fsv':>4s} {'Y':>4s} {'Total':>6s} "
            f"{'ms':>8s} {'cached':>7s}"
        )
        for item in items:
            if not item.ok:
                print(f"{item.name:14s} FAILED: {item.error}")
                continue
            _, fsv_d, y_d, total = item.result.table1_row()
            print(
                f"{item.name:14s} {fsv_d:4d} {y_d:4d} {total:6d} "
                f"{item.seconds * 1000:8.1f} "
                f"{len(item.cache_hits):4d}/{len(item.result.stage_seconds)}"
            )
        wall = sum(item.seconds for item in items)
        hits = sum(1 for item in items if item.store_hit)
        store_note = f", {hits} from warm store" if hits else ""
        print(
            f"{len(items)} machines, {len(failures)} failed, "
            f"{wall * 1000:.1f}ms synthesis time{store_note}"
        )
    return 1 if failures else 0


# ----------------------------------------------------------------------
# Sharded execution over the result store
# ----------------------------------------------------------------------
def _parse_shard(text: str) -> tuple[int, int]:
    """``"i/N"`` → (i, N), validated."""
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ReproError(
            f"--shard wants i/N (e.g. 0/2), got {text!r}"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise ReproError(
            f"--shard {text!r} out of range (need 0 <= i < N, N >= 1)"
        )
    return index, count


def _shard_model(args: argparse.Namespace):
    """The ShardedBatch/ShardedCampaign an invocation describes.

    The work-unit list is re-derived from the command line, so ``run``
    on one machine and ``merge`` on another agree on the plan as long
    as they were given the same arguments — the plan itself never
    travels.
    """
    specs = args.specs or list(benchmark_names())
    tables = [_load_table(spec) for spec in specs]
    if args.campaign:
        from .store import ShardedCampaign

        # --no-fsv selects the unprotected *machine* here (as in
        # `seance validate`), not the hazard_correction spec override
        # `seance batch` uses, so keep it away from _build_spec.
        spec_args = argparse.Namespace(**{**vars(args), "no_fsv": False})
        campaign = _build_campaign(args, spec=_build_spec(spec_args))
        return ShardedCampaign(tables, campaign)
    from .store import ShardedBatch

    return ShardedBatch(tables, spec=_build_spec(args))


def cmd_shard_plan(args: argparse.Namespace) -> int:
    plan = _shard_model(args).plan(args.shards)
    print(plan.describe())
    if args.verbose:
        for unit in plan.units:
            from .store.sharding import shard_of

            print(
                f"  [{shard_of(unit.key, plan.shards)}/{plan.shards}] "
                f"{unit.label}  {unit.key.digest[:16]}"
            )
    return 0


def cmd_shard_run(args: argparse.Namespace) -> int:
    shard, shards = _parse_shard(args.shard)
    store = _open_store(args)
    stats = _shard_model(args).run_shard(shard, shards, store)
    print(f"shard {shard}/{shards}: {stats.describe()}")
    print(store.describe())
    # Mirror `seance batch`: a worker with failed units exits non-zero
    # so distributed drivers see the failure at the shard, not only at
    # the eventual merge.  (The failures are still archived; the merge
    # reproduces them in-stream either way.)
    return 1 if stats.failed else 0


def cmd_shard_merge(args: argparse.Namespace) -> int:
    store = _open_store(args)
    model = _shard_model(args)
    if args.campaign:
        from .store import canonical_campaign_payload, canonical_json

        report = model.merge(store, shards=args.shards)
        if args.json:
            print(canonical_json(canonical_campaign_payload(report)))
        else:
            print(report.describe())
        return 0 if report.all_clean else 1
    from .store import canonical_batch_payload, canonical_json

    items = model.merge(store, shards=args.shards)
    failures = [item for item in items if not item.ok]
    if args.json:
        print(canonical_json(canonical_batch_payload(items)))
    else:
        print(f"{'Benchmark':14s} {'fsv':>4s} {'Y':>4s} {'Total':>6s}")
        for item in items:
            if not item.ok:
                print(f"{item.name:14s} FAILED: {item.error}")
                continue
            _, fsv_d, y_d, total = item.result.table1_row()
            print(f"{item.name:14s} {fsv_d:4d} {y_d:4d} {total:6d}")
        print(
            f"{len(items)} machines merged from the store, "
            f"{len(failures)} failed"
        )
    return 1 if failures else 0


# ----------------------------------------------------------------------
# The service fabric: front door, queue, workers, store lifecycle
# ----------------------------------------------------------------------
def cmd_serve(args: argparse.Namespace) -> int:
    from .service import SynthesisServer

    server = SynthesisServer(
        store=_open_store(args),
        host=args.host,
        port=args.port,
        queue_id=args.queue,
        jobs=args.jobs,
        submit_timeout=args.submit_timeout,
        lease_ttl=args.lease_ttl,
        token=_read_token_file(args.token_file),
        rate=args.rate,
        burst=args.burst,
        max_inflight=args.max_inflight,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def cmd_work(args: argparse.Namespace) -> int:
    from .service import QueueWorker

    worker = QueueWorker(
        _open_store(args),
        args.queue,
        worker_id=args.worker_id,
        lease_ttl=args.lease_ttl,
        poll=args.poll,
    )
    try:
        stats = worker.run(
            max_units=args.max_units,
            drain=not args.keep_polling,
            timeout=args.timeout,
        )
    except KeyboardInterrupt:
        return 130
    print(f"worker {worker.worker_id}: {stats.describe()}")
    return 1 if stats.failed else 0


def cmd_queue_publish(args: argparse.Namespace) -> int:
    from .service import WorkQueue

    queue = WorkQueue(_open_store(args), args.queue)
    published = queue.publish(_shard_model(args).units)
    stats = queue.stats()
    print(
        f"queue {args.queue!r}: published {published} new unit(s); "
        f"{stats.describe()}"
    )
    return 0


def _print_queue_status(queue, queue_id: str) -> bool:
    """One status snapshot (occupancy plus per-lease health rows);
    True when the queue is drained."""
    stats = queue.stats()
    print(f"queue {queue_id!r}: {stats.describe()}")
    for row in queue.lease_report():
        state = "LAPSED" if row["lapsed"] else "live"
        print(
            f"  lease {row['digest'][:16]}  worker={row['worker']}  "
            f"age={row['age']:.1f}s  beats={row['beats']}  "
            f"steals={row['steals']}  [{state}]"
        )
    return stats.done > 0 and stats.remaining == 0


def cmd_queue_status(args: argparse.Namespace) -> int:
    import time as time_module

    from .service import WorkQueue

    if not args.interval > 0:
        raise ReproError(f"--interval must be > 0, got {args.interval}")
    queue = WorkQueue(_open_store(args), args.queue)
    if not args.watch:
        _print_queue_status(queue, args.queue)
        return 0
    # --watch: refresh until the queue drains (or ^C).
    try:
        while True:
            if _print_queue_status(queue, args.queue):
                print("queue drained")
                return 0
            time_module.sleep(args.interval)
    except KeyboardInterrupt:
        return 130


def cmd_submit(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    specs = args.specs or list(benchmark_names())
    tables = [_load_table(spec) for spec in specs]
    client = ServiceClient(
        args.server,
        timeout=args.timeout,
        token=_read_token_file(args.token_file),
        client_id=args.client_id,
    )
    outcomes = client.submit_tables(tables, spec=_build_spec(args))
    failures = [outcome for outcome in outcomes if not outcome["ok"]]
    if args.canonical:
        from .store import canonical_json

        print(canonical_json(ServiceClient.canonical_items(outcomes)))
    elif args.json:
        import json

        print(json.dumps(outcomes, indent=2, sort_keys=True))
    else:
        print(f"{'Benchmark':14s} {'source':>7s} {'passes':>7s}")
        for outcome in outcomes:
            if not outcome["ok"]:
                print(f"{outcome['name']:14s} FAILED: {outcome['error']}")
                continue
            source = "dedup" if outcome["deduped"] else outcome["source"]
            print(
                f"{outcome['name']:14s} {source:>7s} "
                f"{outcome['passes']:7d}"
            )
        hot = sum(1 for o in outcomes if o["store_hit"] or o["deduped"])
        print(
            f"{len(outcomes)} submission(s), {len(failures)} failed, "
            f"{hot} served without a synthesis"
        )
    return 1 if failures else 0


def cmd_store_verify(args: argparse.Namespace) -> int:
    from .store import verify_store

    report = verify_store(_open_store(args))
    print(report.describe())
    return 0 if report.clean else 1


def cmd_chaos_proxy(args: argparse.Namespace) -> int:
    from .service import ChaosProxy, ChaosSchedule
    from .service.chaos import PROXY_MODES

    schedule = ChaosSchedule(
        seed=args.seed,
        rate=args.rate,
        modes=tuple(args.modes or PROXY_MODES),
        limit=args.limit,
    )
    proxy = ChaosProxy(args.upstream, schedule=schedule)
    proxy.start()
    print(f"chaos proxy at {proxy.url} -> {args.upstream}", flush=True)
    import json as json_module
    import time as time_module

    try:
        while True:
            time_module.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        proxy.stop()
        print(json_module.dumps(schedule.snapshot(), sort_keys=True))
    return 0


def cmd_store_gc(args: argparse.Namespace) -> int:
    from .store import gc_store

    report = gc_store(
        _open_store(args),
        max_age_seconds=(
            args.max_age_hours * 3600.0
            if args.max_age_hours is not None
            else None
        ),
        drop_rejected=args.drop_rejected,
        drained_queues=not args.keep_queues,
    )
    print(report.describe())
    return 0


def cmd_store_serve_fake(args: argparse.Namespace) -> int:
    from .service import FakeObjectStoreServer

    server = FakeObjectStoreServer(host=args.host, port=args.port)
    print(f"serving fake store at {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def cmd_passes(args: argparse.Namespace) -> int:
    default = set(DEFAULT_PIPELINE)
    for key in registered_passes():
        marker = "*" if key in default else " "
        print(f"{marker} {key:20s} (stage: {base_name(key)})")
    print("(* = the paper's default pipeline; substitute variants "
          "with --pass)")
    return 0


def _add_matrix_arguments(
    p: argparse.ArgumentParser, store_required: bool
) -> None:
    """Arguments describing a batch matrix / campaign cell grid — the
    shared work-unit vocabulary of ``shard`` and ``queue publish``
    (both must re-derive the same plan from the same command line)."""
    p.add_argument(
        "specs",
        nargs="*",
        help="KISS2 files or benchmark names (default: the whole "
        "built-in suite)",
    )
    _add_store_arguments(
        p, required=store_required, help="shared result store"
    )
    p.add_argument(
        "--campaign",
        action="store_true",
        help="a validation-campaign cell grid instead of a batch "
        "matrix",
    )
    p.add_argument(
        "--no-minimize", action="store_true", help="skip Step 2"
    )
    p.add_argument(
        "--no-fsv",
        action="store_true",
        help="batch: skip the hazard correction; campaign: sweep "
        "the unprotected machines",
    )
    p.add_argument(
        "--reduce-mode",
        choices=["split", "joint"],
        default=None,
        help="Step-7 reduction style",
    )
    _add_spec_arguments(p)
    p.add_argument(
        "--sweep", type=int, default=3,
        help="[campaign] walks per (machine, delay model)",
    )
    p.add_argument(
        "--steps", type=int, default=25,
        help="[campaign] hand-shake cycles per walk",
    )
    p.add_argument(
        "--delay-model",
        dest="delay_models",
        action="append",
        metavar="MODEL",
        default=None,
        help="[campaign] delay model to sweep (repeatable; "
        "default loop-safe)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="[campaign] first walk seed",
    )
    p.add_argument(
        "--engine",
        choices=_engine_choices(),
        default=None,
        help="[campaign] simulation kernel: ring (default; the event "
        "kernel with cycle replay), compiled (the same kernel with "
        "replay off) or reference (the seed interpreter)",
    )


def _add_store_arguments(
    p: argparse.ArgumentParser,
    required: bool = False,
    help: str = "content-addressed result store",
    timeout_flag: str = "--timeout",
) -> None:
    """``--store LOC`` plus the transport knobs for networked
    ``--store`` locations (``seance work`` spells the
    timeout ``--store-timeout`` because its ``--timeout`` is the run's
    wall-clock bound)."""
    p.add_argument(
        "--store",
        metavar="LOC",
        required=required,
        help=f"{help} (a directory or an http(s):// object-store URL)",
    )
    p.add_argument(
        "--retry",
        dest="store_retry",
        type=int,
        default=None,
        metavar="N",
        help="transport retries per store operation on networked "
        "locations (default 2; a ?retry= URL knob overrides)",
    )
    p.add_argument(
        timeout_flag,
        dest="store_timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-operation socket timeout for networked store "
        "locations (default 10; a ?timeout= URL knob overrides)",
    )


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spec",
        dest="pipeline_spec",
        metavar="SPEC.json",
        help="load the pipeline configuration from a PipelineSpec "
        "JSON file (see --emit-spec)",
    )
    parser.add_argument(
        "--pass",
        dest="passes",
        action="append",
        metavar="STAGE[:VARIANT]",
        default=None,
        help="substitute a registered pass variant by stage name "
        "(repeatable; see `seance passes`)",
    )


def cmd_bench_list(args: argparse.Namespace) -> int:
    for name in benchmark_names():
        table = benchmark(name)
        marker = "*" if name in TABLE1_BENCHMARKS else " "
        print(
            f"{marker} {name:14s} {table.num_states:2d} states, "
            f"{table.num_inputs} inputs, {table.num_outputs} outputs"
        )
    print("(* = paper Table 1)")
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    print(kiss_source(args.name), end="")
    return 0


# ----------------------------------------------------------------------
# Scenario corpus and differential fuzzing
# ----------------------------------------------------------------------
def _parse_corpus_params(pairs) -> dict[str, int] | None:
    """``k=v`` flags → an int parameter dict (None when no flags)."""
    if not pairs:
        return None
    params = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not name or not value:
            raise ReproError(f"--param wants name=value, got {pair!r}")
        try:
            params[name] = int(value)
        except ValueError:
            raise ReproError(
                f"--param {name} wants an integer, got {value!r}"
            ) from None
    return params


def cmd_corpus_build(args: argparse.Namespace) -> int:
    from .corpus import build_corpus, corpus_fingerprint, generate

    keys = build_corpus(
        args.family or None,
        args.count,
        args.seed,
        _parse_corpus_params(args.param),
    )
    rows = []
    for key in keys:
        table = generate(key)
        rows.append(
            {
                "key": str(key),
                "fingerprint": corpus_fingerprint(table),
                "states": table.num_states,
                "inputs": table.num_inputs,
                "outputs": table.num_outputs,
            }
        )
    if args.manifest:
        Path(args.manifest).write_text(
            "".join(row["key"] + "\n" for row in rows)
        )
        print(
            f"wrote {len(rows)} key(s) to {args.manifest}",
            file=sys.stderr if args.json else sys.stdout,
        )
    if args.json:
        import json

        print(json.dumps(rows, indent=2))
    elif not args.manifest:
        for row in rows:
            print(
                f"{row['key']:40s} {row['states']:2d} states, "
                f"{row['inputs']} inputs, {row['outputs']} outputs  "
                f"{row['fingerprint'][:12]}"
            )
    return 0


def cmd_corpus_list(args: argparse.Namespace) -> int:
    from .corpus import FAMILIES

    for name in sorted(FAMILIES):
        family = FAMILIES[name]
        defaults = ", ".join(
            f"{k}={v}" for k, v in sorted(family.defaults.items())
        )
        print(f"{name:14s} {family.summary}")
        print(f"{'':14s} defaults: {defaults}")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .corpus import DEFAULT_MODELS, build_corpus, run_fuzz

    sources: list = [_load_table(spec) for spec in args.specs]
    if args.manifest:
        try:
            lines = Path(args.manifest).read_text().splitlines()
        except OSError as error:
            raise ReproError(
                f"cannot read --manifest {args.manifest!r}: {error}"
            ) from error
        sources.extend(line.strip() for line in lines if line.strip())
    if args.family:
        sources.extend(
            build_corpus(
                args.family,
                args.count,
                args.seed,
                _parse_corpus_params(args.param),
            )
        )
    if not sources:
        raise ReproError(
            "nothing to fuzz: give corpus keys/table files, --manifest, "
            "or --family"
        )
    report = run_fuzz(
        sources,
        models=tuple(args.delay_models or DEFAULT_MODELS),
        steps=args.steps,
        walk_seed=args.walk_seed,
        shard=_parse_shard(args.shard) if args.shard else None,
        store=_open_store(args),
        strict=args.strict,
    )
    if args.timing:
        import json

        Path(args.timing).write_text(
            json.dumps(
                {
                    "corpus_fuzz_seconds": round(report.seconds, 6),
                    "corpus_fuzz_machines": report.machines,
                    "corpus_fuzz_checks": report.checks,
                    "corpus_fuzz_findings": len(report.findings),
                    "corpus_fuzz_known_findings": len(
                        report.known_findings
                    ),
                    "corpus_fuzz_store_hits": report.store_hits,
                    "family_seconds": {
                        family: round(seconds, 6)
                        for family, seconds in sorted(
                            report.family_seconds.items()
                        )
                    },
                },
                indent=2,
            )
            + "\n"
        )
    if args.fixtures and report.findings:
        from .corpus import write_finding_fixture
        from .corpus.fuzz import _resolve_source

        written = set()
        for finding in report.findings:
            if (finding.fingerprint, finding.check) in written:
                continue
            written.add((finding.fingerprint, finding.check))
            _, _, table = _resolve_source(finding.key)
            path = write_finding_fixture(args.fixtures, table, finding)
            print(f"minimised {finding.check} on {finding.key} -> {path}")
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"fuzzed {report.machines} machine(s), {report.checks} "
            f"check(s) in {report.seconds:.2f}s "
            f"({report.store_hits} store hit(s))"
        )
        for finding in report.known_findings:
            print(
                f"  known {finding.check} on {finding.key} "
                f"[{finding.model or '-'}/{finding.engine or '-'}]: "
                f"{finding.detail}"
            )
        for finding in report.findings:
            print(
                f"  FINDING {finding.check} on {finding.key} "
                f"[{finding.model or '-'}/{finding.engine or '-'}]: "
                f"{finding.detail}"
            )
        if report.clean:
            print("no divergences: every engine pair agrees")
    return 0 if report.clean else 1


def cmd_vcd_diff(args: argparse.Namespace) -> int:
    from .sim.vcd import vcd_diff

    try:
        a = Path(args.a).read_text()
        b = Path(args.b).read_text()
    except OSError as error:
        raise ReproError(f"cannot read VCD: {error}") from error
    try:
        report = vcd_diff(a, b, limit=args.limit)
    except ValueError as error:
        raise ReproError(str(error)) from error
    if report:
        print(report)
        return 1
    print("VCD documents are observably equivalent")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seance",
        description=(
            "SEANCE: synthesis of multiple-input-change asynchronous "
            "finite state machines (Ladd & Birmingham, DAC 1991)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesise a FANTOM machine")
    synth.add_argument("spec", help="KISS2 file or benchmark name")
    synth.add_argument(
        "--no-minimize", action="store_true", help="skip Step 2"
    )
    synth.add_argument(
        "--no-fsv",
        action="store_true",
        help="skip the hazard correction (unprotected machine)",
    )
    synth.add_argument(
        "--reduce-mode",
        choices=["split", "joint"],
        default=None,
        help="Step-7 reduction style (paper: split; explicit values "
        "override a --spec file)",
    )
    synth.add_argument(
        "--hazards", action="store_true", help="print the hazard lists"
    )
    synth.add_argument(
        "--encoding", action="store_true", help="print the state codes"
    )
    synth.add_argument(
        "--json", action="store_true",
        help="emit the synthesis report as JSON",
    )
    _add_store_arguments(
        synth,
        help="content-addressed result store: a warm (table, spec) key "
        "is served without executing a single pass",
    )
    _add_spec_arguments(synth)
    synth.add_argument(
        "--emit-spec",
        action="store_true",
        help="print the resolved pipeline spec as JSON and exit "
        "(feed it back with --spec)",
    )
    synth.set_defaults(func=cmd_synth)

    table1 = sub.add_parser("table1", help="regenerate paper Table 1")
    table1.set_defaults(func=cmd_table1)

    val = sub.add_parser(
        "validate",
        help="simulate machines against their flow tables "
        "(Monte-Carlo delay-sweep campaign)",
    )
    val.add_argument(
        "specs",
        nargs="+",
        help="KISS2 files or benchmark names",
    )
    val.add_argument("--steps", type=int, default=25,
                     help="hand-shake cycles per walk (default 25)")
    val.add_argument(
        "--sweep",
        type=int,
        default=3,
        help="seeded walks per (machine, delay model)",
    )
    val.add_argument(
        "--seed",
        type=int,
        default=0,
        help="first walk seed (runs are reproducible from the seed range)",
    )
    val.add_argument(
        "--delay-model",
        dest="delay_models",
        action="append",
        metavar="MODEL",
        default=None,
        help="delay model to sweep (repeatable): unit, loop-safe, "
        "skewed, hostile, corner (default loop-safe)",
    )
    val.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the validation cells (synthesis "
        "runs serially)",
    )
    val.add_argument(
        "--engine",
        choices=_engine_choices(),
        default=None,
        help="simulation kernel (ring = the event kernel with "
        "hand-shake cycle replay: exact fixed-point ticks for "
        "fractional delays, heap fallback for off-grid ones; compiled "
        "= the same kernel with replay off; reference = the retained "
        "seed interpreter, for benchmarking; default ring)",
    )
    val.add_argument(
        "--skewed",
        action="store_true",
        help="use the skewed input-skew delay model (alias for "
        "--delay-model skewed)",
    )
    val.add_argument(
        "--no-fsv",
        action="store_true",
        help="ablate fsv (demonstrates the hazards)",
    )
    _add_store_arguments(
        val,
        help="content-addressed result store: warm (table, spec, cell) "
        "keys short-circuit synthesis and simulation entirely",
    )
    val.add_argument(
        "--json",
        action="store_true",
        help="emit the canonical campaign payload (plus all_clean and "
        "store_hits) as JSON",
    )
    val.set_defaults(func=cmd_validate)

    export = sub.add_parser(
        "export", help="emit the machine as structural Verilog"
    )
    export.add_argument("spec", help="KISS2 file or benchmark name")
    export.add_argument("-o", "--output", help="write to a file")
    export.add_argument(
        "--no-fsv", action="store_true", help="export the unprotected machine"
    )
    export.set_defaults(func=cmd_export)

    batch = sub.add_parser(
        "batch",
        help="synthesise many machines through the pass pipeline",
    )
    batch.add_argument(
        "specs",
        nargs="*",
        help="KISS2 files or benchmark names (default: the whole suite)",
    )
    batch.add_argument(
        "--no-minimize", action="store_true", help="skip Step 2"
    )
    batch.add_argument(
        "--no-fsv",
        action="store_true",
        help="skip the hazard correction (unprotected machines)",
    )
    batch.add_argument(
        "--reduce-mode",
        choices=["split", "joint"],
        default=None,
        help="Step-7 reduction style (paper: split; explicit values "
        "override a --spec file)",
    )
    batch.add_argument(
        "--json", action="store_true",
        help="emit the full reports (incl. per-pass telemetry) as JSON",
    )
    batch.add_argument(
        "--canonical",
        action="store_true",
        help="emit the canonical (run-independent) JSON stream: no "
        "timing or cache telemetry, byte-comparable across runs and "
        "against `seance shard merge --json`",
    )
    _add_store_arguments(
        batch,
        help="content-addressed result store: warm (table, spec) keys "
        "are served without executing a single pass",
    )
    _add_spec_arguments(batch)
    batch.set_defaults(func=cmd_batch)

    shard = sub.add_parser(
        "shard",
        help="split a batch matrix or validation campaign into "
        "deterministic content-hash shards over a result store",
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    splan = shard_sub.add_parser(
        "plan", help="show the deterministic unit -> shard assignment"
    )
    _add_matrix_arguments(splan, store_required=False)
    splan.add_argument(
        "-n", "--shards", type=int, default=2, help="shard count"
    )
    splan.add_argument(
        "-v", "--verbose", action="store_true",
        help="list every work unit with its shard and key digest",
    )
    splan.set_defaults(func=cmd_shard_plan)

    srun = shard_sub.add_parser(
        "run",
        help="execute one shard's work units into the shared store",
    )
    _add_matrix_arguments(srun, store_required=True)
    srun.add_argument(
        "--shard",
        required=True,
        metavar="I/N",
        help="which shard this worker is (e.g. 0/2) of how many",
    )
    srun.set_defaults(func=cmd_shard_run)

    smerge = shard_sub.add_parser(
        "merge",
        help="reassemble the full ordered result stream from the store "
        "(byte-identical to a single-process run)",
    )
    _add_matrix_arguments(smerge, store_required=True)
    smerge.add_argument(
        "-n", "--shards", type=int, default=1,
        help="shard count (labels which shard owns any missing unit)",
    )
    smerge.add_argument(
        "--json",
        action="store_true",
        help="emit the canonical JSON stream (batch mode: diffable "
        "against `seance batch --json --canonical`; campaign mode: "
        "the bare canonical campaign payload, without the extra "
        "all_clean/store_hits keys `seance validate --json` adds)",
    )
    smerge.set_defaults(func=cmd_shard_merge)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP job front door (dedup against the store, "
        "against in-flight work, then synthesise or enqueue)",
    )
    _add_store_arguments(
        serve,
        required=True,
        help="result store every submission resolves through",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve.add_argument(
        "--port", type=int, default=8631,
        help="bind port (default 8631; 0 = ephemeral)",
    )
    serve.add_argument(
        "--queue",
        metavar="ID",
        default=None,
        help="fan misses to this work queue (drained by `seance "
        "work`) instead of synthesising locally",
    )
    serve.add_argument(
        "-j", "--jobs", type=int, default=2,
        help="local synthesis threads (ignored with --queue)",
    )
    serve.add_argument(
        "--submit-timeout", type=float, default=300.0, metavar="SECONDS",
        help="how long one submission may wait for the fleet",
    )
    serve.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="SECONDS",
        help="lease time-to-live: published units (--queue) and the "
        "fleet's in-flight intent markers",
    )
    serve.add_argument(
        "--token-file",
        metavar="FILE",
        default=None,
        help="require `Authorization: Bearer <token>` on submissions, "
        "token read from FILE (compared constant-time)",
    )
    serve.add_argument(
        "--rate", type=float, default=None, metavar="PER_SECOND",
        help="per-client submission rate limit (token bucket; the "
        "client is its X-Client-Id header, else peer address)",
    )
    serve.add_argument(
        "--burst", type=float, default=None, metavar="N",
        help="[--rate] bucket burst capacity (default max(rate, 1))",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="bound the in-flight table: submissions that would start "
        "new work past N answer 429 busy (joins always admitted)",
    )
    serve.set_defaults(func=cmd_serve)

    work = sub.add_parser(
        "work",
        help="run one work-queue worker (claim, heartbeat, steal "
        "lapsed leases, execute through the store)",
    )
    _add_store_arguments(
        work,
        required=True,
        help="shared result store holding the queue",
        timeout_flag="--store-timeout",
    )
    work.add_argument(
        "--queue", metavar="ID", default="default", help="queue to drain"
    )
    work.add_argument(
        "--worker-id",
        default=None,
        help="lease-owner name (default host-pid)",
    )
    work.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="SECONDS",
        help="lease time-to-live; a worker silent this long is "
        "presumed crashed and its units become stealable",
    )
    work.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="idle poll interval",
    )
    work.add_argument(
        "--max-units", type=int, default=None,
        help="exit after this many units",
    )
    work.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="hard wall-clock bound on the run",
    )
    work.add_argument(
        "--keep-polling",
        action="store_true",
        help="service mode: keep polling for new units until "
        "--timeout instead of exiting once the queue drains",
    )
    work.set_defaults(func=cmd_work)

    queue = sub.add_parser(
        "queue",
        help="publish work units to / inspect a durable work queue",
    )
    queue_sub = queue.add_subparsers(dest="queue_command", required=True)
    qpub = queue_sub.add_parser(
        "publish",
        help="enumerate a batch matrix or validation campaign into "
        "work units (idempotent: done/stored units are skipped)",
    )
    _add_matrix_arguments(qpub, store_required=True)
    qpub.add_argument(
        "--queue", metavar="ID", default="default",
        help="queue to publish into",
    )
    qpub.set_defaults(func=cmd_queue_publish)
    qstat = queue_sub.add_parser(
        "status", help="show queue occupancy and lease health"
    )
    _add_store_arguments(
        qstat, required=True, help="shared result store holding the queue"
    )
    qstat.add_argument(
        "--queue", metavar="ID", default="default", help="queue to inspect"
    )
    qstat.add_argument(
        "--watch",
        action="store_true",
        help="refresh until the queue drains (or ^C), with per-lease "
        "worker/age/heartbeat/steal rows",
    )
    qstat.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="[--watch] refresh interval",
    )
    qstat.set_defaults(func=cmd_queue_status)

    submit = sub.add_parser(
        "submit",
        help="submit tables to a running `seance serve` front door",
    )
    submit.add_argument(
        "specs",
        nargs="*",
        help="KISS2 files or benchmark names (default: the whole "
        "built-in suite)",
    )
    submit.add_argument(
        "--server", metavar="URL", required=True,
        help="front-door endpoint (http://host:port)",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="per-submission HTTP timeout (also the budget for polite "
        "retries of 429 throttled/busy answers)",
    )
    submit.add_argument(
        "--token-file",
        metavar="FILE",
        default=None,
        help="submission token for a --token-file'd front door",
    )
    submit.add_argument(
        "--client-id",
        default=None,
        help="X-Client-Id rate-limit identity (default: peer address)",
    )
    submit.add_argument(
        "--no-minimize", action="store_true", help="skip Step 2"
    )
    submit.add_argument(
        "--no-fsv",
        action="store_true",
        help="skip the hazard correction (unprotected machines)",
    )
    submit.add_argument(
        "--reduce-mode",
        choices=["split", "joint"],
        default=None,
        help="Step-7 reduction style",
    )
    _add_spec_arguments(submit)
    submit.add_argument(
        "--json", action="store_true",
        help="emit the full outcome dicts (incl. provenance telemetry)",
    )
    submit.add_argument(
        "--canonical",
        action="store_true",
        help="emit the canonical JSON stream, byte-comparable against "
        "`seance batch --json --canonical`",
    )
    submit.set_defaults(func=cmd_submit)

    store_cmd = sub.add_parser(
        "store",
        help="store lifecycle: offline verification, eviction, and "
        "the in-process fake servers",
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    sverify = store_sub.add_parser(
        "verify",
        help="re-check every result envelope offline (exit 1 if any "
        "would be rejected)",
    )
    _add_store_arguments(sverify, required=True, help="store to sweep")
    sverify.set_defaults(func=cmd_store_verify)
    sgc = store_sub.add_parser(
        "gc",
        help="evict store debris: aged-out results, orphaned "
        "artifacts, drained-queue scaffolding, rejected blobs",
    )
    _add_store_arguments(sgc, required=True, help="store to sweep")
    sgc.add_argument(
        "--max-age-hours",
        type=float,
        default=None,
        metavar="HOURS",
        help="age out results (and their artifacts) older than this",
    )
    sgc.add_argument(
        "--drop-rejected",
        action="store_true",
        help="delete blobs a verify sweep rejects",
    )
    sgc.add_argument(
        "--keep-queues",
        action="store_true",
        help="leave drained-queue unit/lease/done scaffolding in place",
    )
    sgc.set_defaults(func=cmd_store_gc)
    sfake = store_sub.add_parser(
        "serve-fake",
        help="run an in-process fake object-store server — the CI "
        "smoke's network substrate",
    )
    sfake.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    sfake.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0 = ephemeral, printed on startup)",
    )
    sfake.set_defaults(func=cmd_store_serve_fake)
    schaos = store_sub.add_parser(
        "chaos-proxy",
        help="run a seeded fault-injecting TCP relay in front of a "
        "store server (drops, resets, truncations, delays)",
    )
    schaos.add_argument(
        "upstream",
        help="server to front (http://host:port)",
    )
    schaos.add_argument(
        "--seed", type=int, default=0, help="fault-schedule seed"
    )
    schaos.add_argument(
        "--rate", type=float, default=0.1,
        help="per-response-chunk fault probability (default 0.1)",
    )
    schaos.add_argument(
        "--limit", type=int, default=None,
        help="cap total injected faults",
    )
    schaos.add_argument(
        "--mode",
        dest="modes",
        action="append",
        metavar="MODE",
        default=None,
        help="fault mode to inject (repeatable): drop, delay, "
        "truncate, reset (default: all)",
    )
    schaos.set_defaults(func=cmd_chaos_proxy)

    passes = sub.add_parser(
        "passes", help="list the registered pipeline pass names"
    )
    passes.set_defaults(func=cmd_passes)

    blist = sub.add_parser("bench-list", help="list built-in benchmarks")
    blist.set_defaults(func=cmd_bench_list)

    show = sub.add_parser("show", help="print a benchmark as KISS2")
    show.add_argument("name")
    show.set_defaults(func=cmd_show)

    corpus = sub.add_parser(
        "corpus",
        help="build and inspect the generated scenario corpus",
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    cbuild = corpus_sub.add_parser(
        "build",
        help="generate corpus keys (and verify their tables build)",
    )
    cbuild.add_argument(
        "--family",
        action="append",
        help="family to draw from (repeatable; default: all families)",
    )
    cbuild.add_argument(
        "--count", type=int, default=10, help="seeds per family"
    )
    cbuild.add_argument(
        "--seed", type=int, default=0, help="first seed of the range"
    )
    cbuild.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="family parameter override (repeatable)",
    )
    cbuild.add_argument(
        "--manifest", help="write the key list to this file"
    )
    cbuild.add_argument(
        "--json", action="store_true", help="print rows as JSON"
    )
    cbuild.set_defaults(func=cmd_corpus_build)
    clist = corpus_sub.add_parser(
        "list", help="list the generator families and their defaults"
    )
    clist.set_defaults(func=cmd_corpus_list)

    fuzz = sub.add_parser(
        "fuzz",
        help=(
            "differential fuzzing: drive corpus machines through every "
            "redundant engine pair"
        ),
    )
    fuzz.add_argument(
        "specs",
        nargs="*",
        help="corpus keys, table files, or benchmark names",
    )
    fuzz.add_argument(
        "--family",
        action="append",
        help="fuzz generated machines of this family (repeatable)",
    )
    fuzz.add_argument(
        "--count", type=int, default=10, help="seeds per --family"
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="first corpus seed"
    )
    fuzz.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="family parameter override (repeatable)",
    )
    fuzz.add_argument(
        "--manifest", help="read additional corpus keys from this file"
    )
    fuzz.add_argument(
        "--steps", type=int, default=18, help="walk length per machine"
    )
    fuzz.add_argument(
        "--walk-seed", type=int, default=0, help="walk/delay seed"
    )
    fuzz.add_argument(
        "--delay-model",
        dest="delay_models",
        action="append",
        help="delay model to walk under (repeatable; default: "
        "unit, loop-safe, loop-safe-offgrid)",
    )
    fuzz.add_argument(
        "--shard",
        metavar="i/N",
        help="fuzz only the machines whose digest lands on shard i of N",
    )
    _add_store_arguments(
        fuzz,
        help="archive per-machine reports here and skip warm machines",
    )
    fuzz.add_argument(
        "--fixtures",
        help="minimise each finding into a fixture under this directory",
    )
    fuzz.add_argument(
        "--strict",
        action="store_true",
        help="treat known (pinned) anomalies as hard findings",
    )
    fuzz.add_argument(
        "--timing", help="write a machine-readable timing JSON here"
    )
    fuzz.add_argument(
        "--json", action="store_true", help="print the full report JSON"
    )
    fuzz.set_defaults(func=cmd_fuzz)

    vcd = sub.add_parser("vcd", help="VCD trace utilities")
    vcd_sub = vcd.add_subparsers(dest="vcd_command", required=True)
    vdiff = vcd_sub.add_parser(
        "diff",
        help=(
            "compare two VCD documents; exit 1 (and report per-net "
            "first divergences) when they are not observably equivalent"
        ),
    )
    vdiff.add_argument("a", help="first VCD file")
    vdiff.add_argument("b", help="second VCD file")
    vdiff.add_argument(
        "--limit", type=int, default=20, help="max divergent nets to print"
    )
    vdiff.set_defaults(func=cmd_vcd_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, KeyError) as error:
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # e.g. `seance table1 | head -3`: the reader closed the pipe.
        # Point stdout at devnull so the interpreter's shutdown flush
        # doesn't print a second traceback, and exit like a killed pipe
        # participant would.
        import os

        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
