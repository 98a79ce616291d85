"""Fault-injecting chaos harness for the service fabric.

The store's founding invariant — corrupt or racing states degrade to
recomputation, never wrong results — is tested for *content* faults
(poisoned blobs) and for *process* faults (killed workers, stolen
leases).  This module injects **network** faults so the tests and the
CI chaos smoke can prove it for the transport too:

:class:`ChaosSchedule`
    A seeded fault plan: each consultation rolls a
    ``random.Random(seed)`` against ``rate`` and yields either None
    (pass) or a fault mode, round-robining over ``modes`` weightlessly.
    One schedule can drive a :class:`ChaosProxy` and the richer
    ``fail_next``-style modes on the fake object store simultaneously;
    the sequence of decisions is reproducible from the seed (what
    arrives at each decision point still depends on thread timing — the
    assertions are about *outcomes*, which must be byte-identical to a
    clean run, not about which request got hurt).

:class:`ChaosProxy`
    A real TCP relay in front of any ``http://`` server: clients
    connect to :attr:`url`, the proxy pipes bytes to the upstream, and
    on each upstream **response chunk** consults the schedule —

    * ``drop``     — close both sides mid-response (clean FIN);
    * ``reset``    — close with ``SO_LINGER 0`` (RST, a genuinely
      broken socket);
    * ``truncate`` — forward half the chunk, then close (torn body);
    * ``delay``    — sleep before forwarding (latency spike / timeout
      pressure).

    Being a dumb byte pipe, the proxy cannot speak HTTP — protocol
    level faults (500s, stale reads) live on the fake itself
    (``FakeObjectStoreServer.fail_next(n, mode=...)`` /
    ``set_chaos(schedule)``).  Between the two layers every fault mode
    (drop, delay, truncate, 500, reset, stale-read) is covered, and the
    transport policy in :mod:`repro.store.net` must absorb all of them.
"""

from __future__ import annotations

import random
import socket
import socketserver
import struct
import threading
import time
import urllib.parse

from .fakes import StopOnRequest

#: Fault modes a byte-level proxy can inject.
PROXY_MODES = ("drop", "delay", "truncate", "reset")

#: Protocol-level modes only the fake servers can inject.
SERVER_MODES = ("drop", "delay", "truncate", "reset", "error", "stale")


class ChaosSchedule:
    """A seeded, thread-safe fault plan (see the module docstring).

    ``rate`` is the per-decision fault probability; ``limit`` caps the
    total number of injected faults (None = unbounded), which keeps a
    smoke's tail latency bounded.  ``injected`` tallies decisions per
    mode (``None`` rolls are not recorded).
    """

    def __init__(
        self,
        seed: int = 0,
        rate: float = 0.1,
        modes: tuple[str, ...] = PROXY_MODES,
        limit: int | None = None,
    ):
        if not modes:
            raise ValueError("a chaos schedule needs at least one mode")
        self.seed = seed
        self.rate = rate
        self.modes = tuple(modes)
        self.limit = limit
        self._random = random.Random(seed)
        self._lock = threading.Lock()
        self._decisions = 0
        self.injected: dict[str, int] = {}

    def next_fault(self) -> str | None:
        """The next decision: a mode to inject, or None to pass."""
        with self._lock:
            self._decisions += 1
            if self.limit is not None and self.total >= self.limit:
                return None
            if self._random.random() >= self.rate:
                return None
            mode = self.modes[self._random.randrange(len(self.modes))]
            self.injected[mode] = self.injected.get(mode, 0) + 1
            return mode

    @property
    def total(self) -> int:
        return sum(self.injected.values())

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "seed": self.seed,
                "rate": self.rate,
                "decisions": self._decisions,
                "injected": dict(sorted(self.injected.items())),
            }


def _shutdown(sock: socket.socket) -> None:
    """Send FIN now and wake any thread blocked in ``recv``.

    ``close()`` alone is not enough: while another thread sits inside a
    blocking ``recv`` on the same socket, the kernel keeps the
    connection's file description alive until that syscall returns, so
    no FIN goes out and the *peer* waits out its full socket timeout.
    ``shutdown`` acts immediately regardless.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


def _reset_hard(sock: socket.socket) -> None:
    """Close with an RST instead of a FIN (SO_LINGER 0)."""
    try:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
    except OSError:
        pass
    try:
        # SHUT_RD wakes a local reader blocked in recv (releasing the
        # file description) without sending anything on the wire, so
        # the linger-0 close below still goes out as an RST.
        sock.shutdown(socket.SHUT_RD)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class ChaosProxy:
    """A fault-injecting TCP relay in front of one upstream server.

    ``upstream`` is the server's URL (``http://host:port``);
    :attr:`url` is the same URL re-pointed at the proxy (query string
    preserved, so ``?retry=&timeout=`` knobs ride through).
    ``delay_seconds`` is the latency of one ``delay`` fault.  Use as a
    context manager, like the fake object store.
    """

    def __init__(
        self,
        upstream: str,
        schedule: ChaosSchedule | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        delay_seconds: float = 0.05,
    ):
        parsed = urllib.parse.urlsplit(upstream)
        if parsed.hostname is None or parsed.port is None:
            raise ValueError(
                f"chaos proxy upstream needs host:port, got {upstream!r}"
            )
        self.upstream = upstream
        self._scheme = parsed.scheme
        self._query = parsed.query
        self._upstream_address = (parsed.hostname, parsed.port)
        self.schedule = (
            schedule if schedule is not None else ChaosSchedule()
        )
        delay = delay_seconds
        schedule_ref = self.schedule
        upstream_address = self._upstream_address

        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                client = self.request
                try:
                    server = socket.create_connection(
                        upstream_address, timeout=10
                    )
                except OSError:
                    client.close()
                    return
                dead = threading.Event()

                def pump_up():
                    # client -> server: forwarded verbatim; requests
                    # are never corrupted, only responses (a mangled
                    # *request* would test the fake's parser, not the
                    # client's resilience).
                    try:
                        while not dead.is_set():
                            chunk = client.recv(65536)
                            if not chunk:
                                break
                            server.sendall(chunk)
                    except OSError:
                        pass
                    finally:
                        dead.set()
                        try:
                            server.shutdown(socket.SHUT_WR)
                        except OSError:
                            pass

                up = threading.Thread(target=pump_up, daemon=True)
                up.start()
                # server -> client: one schedule decision per chunk.
                try:
                    while not dead.is_set():
                        chunk = server.recv(65536)
                        if not chunk:
                            break
                        mode = schedule_ref.next_fault()
                        if mode == "delay":
                            time.sleep(delay)
                        elif mode == "truncate":
                            client.sendall(chunk[: max(len(chunk) // 2, 1)])
                            _shutdown(client)
                            break
                        elif mode == "drop":
                            _shutdown(client)
                            break
                        elif mode == "reset":
                            dead.set()
                            _reset_hard(client)
                            break
                        client.sendall(chunk)
                except OSError:
                    pass
                finally:
                    dead.set()
                    for closer in (client, server):
                        _shutdown(closer)
                        try:
                            closer.close()
                        except OSError:
                            pass

        class Server(StopOnRequest, socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = Server((host, port), Handler)
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        query = f"?{self._query}" if self._query else ""
        return f"{self._scheme}://{host}:{port}{query}"

    def start(self) -> ChaosProxy:
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> ChaosProxy:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
