#!/usr/bin/env python
"""End-to-end service smoke: the CI job behind the service fabric.

Spins up the whole fleet shape as real processes over a real socket:

1. an in-process **fake object-store server** (the networked
   ``StoreBackend`` substrate), optionally behind a fault-injecting
   :class:`~repro.service.chaos.ChaosProxy` (``--chaos-seed``);
2. ``seance serve`` as a subprocess in **queue mode** against it —
   two of them with ``--two-servers``, sharing one store and queue;
3. a unit pre-claimed by a fabricated **crashed worker** (a lease that
   will never beat again) plus **two worker subprocesses**, one of
   which is SIGKILLed mid-run — the survivor must steal both ways;
4. **two concurrent clients** submitting the same table list through
   the front door(s).

Passes when:

* every submission succeeds and both clients see identical results;
* the merged canonical stream is **byte-identical** to a single-process
  ``seance batch --json --canonical`` — including under an adversarial
  network (the degrade-to-recompute-never-wrong-bytes invariant);
* a warm resubmission short-circuits to **zero passes**;
* the queue fully drains despite the crashed lease and the killed
  worker (work stealing at the lease layer *and* the process layer).

``--chaos-seed N`` reruns the same scenario with a seeded fault plan:
a TCP chaos proxy (drop / delay / truncate / reset) in front of the
store for every subprocess, protocol-level faults (500 / delay / stale)
on the fake itself, and ``?retry=&timeout=`` knobs on the store URL so
the transport policy absorbs all of it.  ``--timing OUT.json`` writes
the wall clock plus the chaos/transport telemetry (the CI smoke
artifacts).

Stdlib only; run from the repo root:

    PYTHONPATH=src python scripts/service_smoke.py [--chaos-seed 7]
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.bench import benchmark  # noqa: E402
from repro.service import (  # noqa: E402
    ChaosProxy,
    ChaosSchedule,
    FakeObjectStoreServer,
    ServiceClient,
    WorkQueue,
)
from repro.store import canonical_json  # noqa: E402

TABLES = ["lion", "traffic", "hazard_demo", "lion9"]
QUEUE = "ci-smoke"
LEASE_TTL = 2.0

#: Retry/timeout knobs every subprocess rides under chaos.
STORE_KNOBS = "retry=6&timeout=5"


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
        "--two-servers", action="store_true",
        help="run two `seance serve` processes against the shared "
        "store/queue; each client submits through its own",
    )
    parser.add_argument(
        "--timing", metavar="OUT.json", default=None,
        help="write wall clock + chaos/transport telemetry here",
    )
    return parser.parse_args(argv)


def spawn(*argv, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        cwd=ROOT,
        **kwargs,
    )


def await_url(process, pattern, timeout=30.0):
    """First URL matching ``pattern`` on the process's stdout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise SystemExit(
                f"process exited before announcing a URL "
                f"(rc={process.poll()})"
            )
        match = re.search(pattern, line)
        if match:
            return match.group(0)
    raise SystemExit("timed out waiting for the service URL")


def spawn_server(store_url):
    return spawn(
        "serve",
        "--store", store_url,
        "--queue", QUEUE,
        "--port", "0",
        "--lease-ttl", str(LEASE_TTL),
        stdout=subprocess.PIPE,
        text=True,
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    failures = []

    def check(ok, what):
        print(("ok  " if ok else "FAIL") + f" {what}", flush=True)
        if not ok:
            failures.append(what)

    client_timeout = 240 if args.chaos_seed is not None else 120
    proxy_schedule = server_schedule = None
    report = {}
    started = time.monotonic()

    with FakeObjectStoreServer() as fake:
        print(f"fake object store at {fake.url}", flush=True)
        # The harness's own bookkeeping rides the clean URL — only the
        # fleet under test gets hurt.
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

        # A worker that claimed a unit and died without a word: publish
        # the plan up front and take one lease that will never beat.
        publish = spawn(
            "queue", "publish", *TABLES,
            "--store", store_url, "--queue", QUEUE,
        )
        publish.wait(timeout=120)
        check(publish.returncode == 0, "queue publish")
        pending = queue.pending()
        check(len(pending) == len(TABLES), "one unit per table published")
        victim_digest = pending[0][0]
        check(
            queue.claim(victim_digest, "crashed-worker", ttl=LEASE_TTL),
            "crashed worker holds a lease",
        )

        servers = [spawn_server(store_url)]
        if args.two_servers:
            servers.append(spawn_server(store_url))
        workers = [
            spawn(
                "work",
                "--store", store_url,
                "--queue", QUEUE,
                "--worker-id", f"worker-{index}",
                "--lease-ttl", str(LEASE_TTL),
                "--poll", "0.1",
                "--keep-polling",
                "--timeout", "180",
            )
            for index in range(2)
        ]
        try:
            urls = [
                await_url(server, r"http://[0-9.:]+")
                for server in servers
            ]
            for url in urls:
                print(f"front door at {url}", flush=True)

            # Two concurrent clients, same submission list — through
            # separate servers when --two-servers: the fleet dedupes
            # across processes, the workers execute each unit exactly
            # once (modulo steals, which are idempotent).
            outcomes = {}

            tables = [benchmark(name) for name in TABLES]

            def run_client(slot):
                client = ServiceClient(
                    urls[slot % len(urls)], timeout=client_timeout
                )
                outcomes[slot] = client.submit_tables(tables)

            clients = [
                threading.Thread(target=run_client, args=(slot,))
                for slot in range(2)
            ]
            for thread in clients:
                thread.start()

            # While they work: SIGKILL one worker mid-run.  Its leases
            # lapse after LEASE_TTL and the survivor steals them.
            time.sleep(LEASE_TTL / 2)
            workers[0].kill()
            print("killed worker-0", flush=True)

            for thread in clients:
                thread.join()

            for slot in (0, 1):
                check(
                    all(o["ok"] for o in outcomes[slot]),
                    f"client {slot}: all submissions succeeded",
                )
            streams = {
                slot: canonical_json(
                    ServiceClient.canonical_items(outcomes[slot])
                )
                for slot in (0, 1)
            }
            check(
                streams[0] == streams[1],
                "both clients saw identical canonical results",
            )

            # Byte-identity against a clean single process: no store,
            # no network, no chaos — the reference answer.
            batch = subprocess.run(
                [
                    sys.executable, "-m", "repro", "batch",
                    *TABLES, "--json", "--canonical",
                ],
                env=dict(
                    os.environ, PYTHONPATH=str(ROOT / "src")
                ),
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=300,
            )
            check(batch.returncode == 0, "single-process seance batch")
            check(
                streams[0] == batch.stdout.rstrip("\n"),
                "merged service output byte-identical to "
                "`seance batch --json --canonical`",
            )

            # Warm resubmission: zero passes, served from the store.
            # Asked through the *clean* URL — this pins store state,
            # not transport luck.
            warm = ServiceClient(
                urls[0], timeout=client_timeout
            ).submit_tables(tables)
            check(
                all(
                    o["store_hit"] and o["passes"] == 0 for o in warm
                ),
                "warm resubmission short-circuits to zero passes",
            )

            stats = queue.stats()
            check(
                stats.remaining == 0,
                "queue drained despite the crashed lease and the "
                "killed worker",
            )

            # The server-side transport telemetry (faults absorbed on
            # the way to the verdicts above).
            server_stats = ServiceClient(
                urls[0], timeout=30
            ).stats()
            report = {
                "units": stats.units,
                "done": stats.done,
                "tables": TABLES,
                "servers": len(servers),
                "transport": server_stats.get("transport"),
            }
            print(f"queue report: {json.dumps(report)}", flush=True)
        finally:
            for server in servers:
                server.terminate()
            for worker in workers:
                if worker.poll() is None:
                    worker.send_signal(signal.SIGTERM)
            for server in servers:
                server.wait(timeout=10)
            for worker in workers:
                try:
                    worker.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    worker.kill()
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
            "two_servers": args.two_servers,
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
