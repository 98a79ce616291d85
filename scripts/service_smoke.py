#!/usr/bin/env python
"""End-to-end service smoke: the CI job behind the service fabric.

Runs the whole fleet shape as real processes over a real socket:

1. an in-process **fake object-store server** (the networked
   ``StoreBackend`` substrate), optionally behind a fault-injecting
   :class:`~repro.service.chaos.ChaosProxy` (``--chaos-seed``);
2. **two concurrent** ``seance queue publish`` runs of one plan — the
   queue must hold one unit per table;
3. a unit pre-claimed by a fabricated **crashed worker** (a lease that
   will never beat again) plus **two** ``seance work`` **drainers**,
   one of which is SIGKILLed mid-run — the survivor must steal the
   crashed worker's unit and drain the queue.

Passes when:

* the queue holds one unit per table despite the racing publishers;
* the queue fully drains despite the crashed lease and the killed
  worker (the crashed lease lapses only after the kill, so draining
  means the survivor stole it);
* ``seance shard merge --store URL --json`` over the drained store is
  **byte-identical** to a single-process ``seance batch --json
  --canonical`` — including under an adversarial network (the
  degrade-to-recompute-never-wrong-bytes invariant);
* a warm ``seance batch --store URL --json`` serves every item from the
  store with **zero passes**.

``--chaos-seed N`` reruns the same scenario with a seeded fault plan:
a TCP chaos proxy (drop / delay / truncate / reset) in front of the
store for every subprocess, protocol-level faults (500 / delay / stale)
on the fake itself, and ``?retry=&timeout=`` knobs on the store URL so
the transport policy absorbs all of it.  ``--timing OUT.json`` writes
the wall clock plus the chaos telemetry (the CI smoke artifacts).

Stdlib only; run from the repo root:

    PYTHONPATH=src python scripts/service_smoke.py [--chaos-seed 7]
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.service import (  # noqa: E402
    ChaosProxy,
    ChaosSchedule,
    FakeObjectStoreServer,
    WorkQueue,
)

TABLES = ["lion", "traffic", "hazard_demo", "lion9"]
QUEUE = "ci-smoke"
LEASE_TTL = 2.0

#: Retry/timeout knobs every subprocess rides under chaos.
STORE_KNOBS = "retry=6&timeout=5"

#: Bound on any one subprocess (the survivor waits out lapsed leases).
PROCESS_TIMEOUT = 240


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument(
        "--chaos-seed", type=int, default=None, metavar="N",
        help="inject a seeded fault plan between every subprocess and "
        "the store (omit for the clean leg)",
    )
    parser.add_argument(
        "--chaos-rate", type=float, default=0.15,
        help="per-decision fault probability under --chaos-seed",
    )
    parser.add_argument(
        "--chaos-limit", type=int, default=50,
        help="total fault budget (bounds the smoke's tail latency)",
    )
    parser.add_argument(
        "--timing", metavar="OUT.json", default=None,
        help="write wall clock + chaos telemetry here",
    )
    return parser.parse_args(argv)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def spawn(*argv):
    """Start ``seance ARGV`` with its stdout captured as text."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        env=_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )


def seance(*argv):
    """Run ``seance ARGV`` to completion; the CompletedProcess."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROCESS_TIMEOUT,
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    failures = []

    def check(ok, what):
        print(("ok  " if ok else "FAIL") + f" {what}", flush=True)
        if not ok:
            failures.append(what)

    proxy_schedule = server_schedule = None
    report = {}
    started = time.monotonic()

    with FakeObjectStoreServer() as fake:
        print(f"fake object store at {fake.url}", flush=True)
        # The harness's own bookkeeping rides the clean URL — only the
        # fleet under test goes through the proxy.
        queue = WorkQueue(fake.url, QUEUE, lease_ttl=LEASE_TTL)

        if args.chaos_seed is not None:
            proxy_schedule = ChaosSchedule(
                seed=args.chaos_seed,
                rate=args.chaos_rate,
                limit=args.chaos_limit,
            )
            server_schedule = ChaosSchedule(
                seed=args.chaos_seed + 1,
                rate=args.chaos_rate / 2,
                modes=("error", "delay", "stale"),
                limit=args.chaos_limit // 2,
            )
            fake.set_chaos(server_schedule)
            proxy = ChaosProxy(
                f"{fake.url}?{STORE_KNOBS}", proxy_schedule
            ).start()
            store_url = proxy.url
            print(
                f"chaos proxy at {store_url} "
                f"(seed={args.chaos_seed}, rate={args.chaos_rate})",
                flush=True,
            )
        else:
            proxy = None
            store_url = fake.url

        workers = []
        try:
            # Two publishers race one plan: publication is conditional
            # on the unit digest, so the queue holds each unit once.
            publishers = [
                spawn(
                    "queue", "publish", *TABLES,
                    "--store", store_url, "--queue", QUEUE,
                )
                for _ in range(2)
            ]
            published = []
            for publisher in publishers:
                out, _ = publisher.communicate(timeout=PROCESS_TIMEOUT)
                match = re.search(r"published (\d+) new", out)
                published.append(int(match.group(1)) if match else None)
            check(
                all(p.returncode == 0 for p in publishers),
                "two concurrent queue publishers",
            )
            check(
                None not in published and sum(published) == len(TABLES),
                f"publishers' counts {published} sum to {len(TABLES)}",
            )
            pending = queue.pending()
            check(len(pending) == len(TABLES), "one unit per table queued")

            # A worker that claimed a unit and died without a word: one
            # lease that will never beat.
            check(
                queue.claim(pending[0][0], "crashed-worker", ttl=LEASE_TTL),
                "crashed worker holds a lease",
            )

            workers = [
                spawn(
                    "work",
                    "--store", store_url,
                    "--queue", QUEUE,
                    "--worker-id", f"worker-{index}",
                    "--lease-ttl", str(LEASE_TTL),
                    "--poll", "0.1",
                    "--timeout", "180",
                )
                for index in range(2)
            ]
            # SIGKILL one drainer mid-run, before the crashed lease
            # lapses: its own lease (if any) lapses after LEASE_TTL and
            # the survivor steals both.
            time.sleep(LEASE_TTL / 2)
            workers[0].kill()
            print("killed worker-0", flush=True)

            survivor, _ = workers[1].communicate(timeout=PROCESS_TIMEOUT)
            print(survivor.rstrip(), flush=True)
            check(workers[1].returncode == 0, "surviving worker drained")
            stats = queue.stats()
            check(
                stats.remaining == 0,
                "queue drained despite the crashed lease and the "
                "killed worker",
            )

            # Byte-identity against a clean single process: no store,
            # no network, no chaos — the reference answer.
            merged = seance(
                "shard", "merge", *TABLES, "--store", store_url, "--json"
            )
            check(merged.returncode == 0, "shard merge over the store")
            batch = seance("batch", *TABLES, "--json", "--canonical")
            check(batch.returncode == 0, "single-process seance batch")
            check(
                merged.stdout == batch.stdout,
                "merged queue output byte-identical to "
                "`seance batch --json --canonical`",
            )

            # Warm batch over the drained store: zero passes.
            warm = seance("batch", *TABLES, "--store", store_url, "--json")
            items = json.loads(warm.stdout) if warm.returncode == 0 else []
            check(
                len(items) == len(TABLES)
                and all(
                    item["store_hit"] and item["passes"] == []
                    for item in items
                ),
                "warm batch is all store hits with zero passes",
            )

            report = {
                "tables": TABLES,
                "published": published,
                "units": stats.units,
                "done": stats.done,
                "survivor": survivor.strip(),
            }
            print(f"queue report: {json.dumps(report)}", flush=True)
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.kill()
                worker.communicate(timeout=15)
            if proxy is not None:
                proxy.stop()

    wall = time.monotonic() - started
    if args.chaos_seed is not None:
        print(
            "chaos telemetry: "
            f"proxy={json.dumps(proxy_schedule.snapshot())} "
            f"server={json.dumps(server_schedule.snapshot())}",
            flush=True,
        )
    if args.timing:
        payload = {
            "service_smoke_seconds": round(wall, 3),
            "report": report,
            "chaos": (
                {
                    "proxy": proxy_schedule.snapshot(),
                    "server": server_schedule.snapshot(),
                }
                if args.chaos_seed is not None
                else None
            ),
        }
        Path(args.timing).write_text(json.dumps(payload, indent=2))
        print(f"timing written to {args.timing}", flush=True)

    if failures:
        print(f"\n{len(failures)} check(s) FAILED", flush=True)
        return 1
    print("\nservice smoke passed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
