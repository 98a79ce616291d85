"""In-process fake object-store server for the networked store backend.

:class:`FakeObjectStoreServer` is a *real server on a real socket* — a
``http.server.ThreadingHTTPServer`` accepting TCP connections — so the
client in :mod:`repro.store.net` exercises genuine framing, reconnects,
and partial-failure paths in tests and the CI service smoke, without
any external dependency.  It speaks the S3/GCS shape: GET/PUT/DELETE/
HEAD on ``/b/<name>``, ``If-None-Match: *`` conditional put (412 when
present — the queue's lease primitive), and ``/list?prefix=`` returning
a JSON name array.  ``seance store serve-fake`` boots one as a
foreground process for multi-process smokes.

Replies go out with ``TCP_NODELAY``: a reply with a body is written as
a header block and then the body, and with Nagle on the second write
waits for the client's delayed ACK (~40 ms per request on loopback).

Fault injection comes in two styles, sharing one vocabulary of modes
(:data:`~repro.service.chaos.SERVER_MODES`):

* ``fail_next(n, mode=...)`` arms the next *n* requests with one mode —
  the surgical style the conformance tests parametrise over;
* ``set_chaos(schedule)`` hands request-level decisions to a seeded
  :class:`~repro.service.chaos.ChaosSchedule` — the statistical style
  the chaos smoke runs under.

Modes and their injury:

* ``drop``     — shut the connection down before processing (the
  request never happened);
* ``reset``    — likewise, but with an RST (``SO_LINGER 0``);
* ``delay``    — process normally after a latency spike;
* ``error``    — answer 500 without processing;
* ``truncate`` — **process the request**, then tear the response
  mid-body (the client must treat the operation as failed even though
  it took effect — the precondition-replay scenario);
* ``stale``    — serve the *previous* version of the blob (eventual-
  consistency read; only meaningful for reads).
"""

from __future__ import annotations

import json
import selectors
import socket
import struct
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

#: Fake-level delay-fault latency (seconds) — enough to be a real stall
#: on a loopback socket, small enough to keep test suites fast.
FAULT_DELAY = 0.05


class _BlobTable:
    """Shared blob state: name → (bytes, mtime).

    Keeps a one-deep *previous version* shadow per name so the
    ``stale`` fault mode can serve genuinely outdated (but once-valid)
    reads — the eventual-consistency failure shape.
    """

    def __init__(self) -> None:
        self._entries: dict[str, tuple[bytes, float]] = {}
        self._previous: dict[str, tuple[bytes, float]] = {}
        self._lock = threading.Lock()

    def get(self, name: str) -> tuple[bytes, float] | None:
        with self._lock:
            return self._entries.get(name)

    def get_stale(self, name: str) -> tuple[bytes, float] | None:
        """The previous version when one exists, else the current one —
        what an eventually-consistent replica might still serve."""
        with self._lock:
            previous = self._previous.get(name)
        return previous if previous is not None else self.get(name)

    def put(self, name: str, data: bytes, if_absent: bool = False) -> bool:
        with self._lock:
            entry = self._entries.get(name)
            if if_absent and entry is not None:
                return False
            if entry is not None:
                self._previous[name] = entry
            self._entries[name] = (bytes(data), time.time())
            return True

    def delete(self, name: str) -> bool:
        with self._lock:
            entry = self._entries.pop(name, None)
            if entry is not None:
                self._previous[name] = entry
            return entry is not None

    def names(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(
                name for name in self._entries if name.startswith(prefix)
            )


class _FaultBox:
    """Per-request fault decisions: an armed countdown (surgical) with
    a seeded :class:`~repro.service.chaos.ChaosSchedule` fallback
    (statistical).  Armed faults win while any remain."""

    def __init__(self) -> None:
        self._remaining = 0
        self._mode = "drop"
        self._schedule = None
        self._lock = threading.Lock()

    def arm(self, count: int, mode: str = "drop") -> None:
        with self._lock:
            self._remaining = count
            self._mode = mode

    def set_schedule(self, schedule) -> None:
        with self._lock:
            self._schedule = schedule

    def next_mode(self) -> str | None:
        with self._lock:
            if self._remaining > 0:
                self._remaining -= 1
                return self._mode
            schedule = self._schedule
        if schedule is not None:
            return schedule.next_fault()
        return None


def _reset_connection(connection: socket.socket) -> None:
    """Make the peer see an RST, not a FIN."""
    try:
        connection.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
    except OSError:
        pass


class StopOnRequest:
    """Server mixin whose ``shutdown()`` returns as soon as it is called.

    ``socketserver``'s own ``serve_forever`` checks for a shutdown only
    between 0.5 s polls, so every ``shutdown()`` waits out up to one
    poll.  This loop instead waits on a selector over the listening
    socket and one end of a ``socketpair``; ``shutdown()`` writes a byte
    to the other end, which wakes the loop at once.  Mix in ahead of the
    ``socketserver`` class.
    """

    def __init__(self, *args, **kwargs) -> None:
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._stop_requested = threading.Event()
        self._stopped = threading.Event()
        super().__init__(*args, **kwargs)

    def serve_forever(self) -> None:
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            selector.register(self._wake_reader, selectors.EVENT_READ)
            try:
                while not self._stop_requested.is_set():
                    for key, _ in selector.select():
                        if key.fileobj is self:
                            self._handle_request_noblock()
                    self.service_actions()
            finally:
                self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` (running in another thread)."""
        if not self._stop_requested.is_set():
            self._stop_requested.set()
            self._wake_writer.send(b"\0")
        self._stopped.wait()

    def server_close(self) -> None:
        super().server_close()
        self._wake_reader.close()
        self._wake_writer.close()


class _HTTPServer(StopOnRequest, ThreadingHTTPServer):
    daemon_threads = True


class FakeObjectStoreServer:
    """Threaded HTTP object store over a real socket (see module doc).

    Use as a context manager or call :meth:`start`/:meth:`stop`; the
    client-facing URL is :attr:`url`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        table = self.blobs = _BlobTable()
        faults = self.faults = _FaultBox()
        stats = self.request_counts = {
            "GET": 0, "PUT": 0, "DELETE": 0, "HEAD": 0, "LIST": 0,
        }
        stats_lock = threading.Lock()

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True
            _fault_mode: str | None = None

            def log_message(self, *args):  # noqa: D102 - silence stderr
                pass

            def _count(self, verb: str) -> None:
                with stats_lock:
                    stats[verb] = stats.get(verb, 0) + 1

            def _disconnect(self, reset: bool = False) -> None:
                self.close_connection = True
                if reset:
                    _reset_connection(self.connection)
                try:
                    self.connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

            def _maybe_fault(self) -> bool:
                """Apply this request's fault decision; True = the
                request is over (connection torn or error answered).
                ``truncate``/``stale`` set :attr:`_fault_mode` and let
                processing continue."""
                self._fault_mode = None
                mode = faults.next_mode()
                if mode is None:
                    return False
                if mode in ("drop", "reset"):
                    self._disconnect(reset=(mode == "reset"))
                    return True
                if mode == "error":
                    self._reply(500, b"chaos: injected server error\n")
                    return True
                if mode == "delay":
                    time.sleep(FAULT_DELAY)
                    return False
                self._fault_mode = mode  # truncate | stale
                return False

            def _reply(
                self, status: int, body: bytes = b"",
                headers: dict | None = None,
            ) -> None:
                if self._fault_mode == "truncate":
                    # The request *was processed*; tear the response.
                    if body and self.command != "HEAD":
                        self.send_response(status)
                        for key, value in (headers or {}).items():
                            self.send_header(key, value)
                        self.send_header("Content-Length", str(len(body)))
                        self.end_headers()
                        self.wfile.write(body[: len(body) // 2])
                        try:
                            self.wfile.flush()
                        except OSError:
                            pass
                    self._disconnect()
                    return
                self.send_response(status)
                for key, value in (headers or {}).items():
                    self.send_header(key, value)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                if self.command != "HEAD":
                    self.wfile.write(body)

            def _name(self) -> str | None:
                path = urllib.parse.urlsplit(self.path).path
                if not path.startswith("/b/"):
                    return None
                return urllib.parse.unquote(path[len("/b/"):])

            def _read_entry(self, name: str | None):
                if name is None:
                    return None
                if self._fault_mode == "stale":
                    return table.get_stale(name)
                return table.get(name)

            def do_GET(self):
                if self._maybe_fault():
                    return
                parsed = urllib.parse.urlsplit(self.path)
                if parsed.path == "/list":
                    self._count("LIST")
                    query = urllib.parse.parse_qs(parsed.query)
                    prefix = query.get("prefix", [""])[0]
                    body = json.dumps(table.names(prefix)).encode()
                    self._reply(
                        200, body, {"Content-Type": "application/json"}
                    )
                    return
                self._count("GET")
                entry = self._read_entry(self._name())
                if entry is None:
                    self._reply(404)
                    return
                data, mtime = entry
                self._reply(200, data, {"X-Blob-Mtime": f"{mtime:.6f}"})

            def do_HEAD(self):
                if self._maybe_fault():
                    return
                self._count("HEAD")
                entry = self._read_entry(self._name())
                if entry is None:
                    self._reply(404)
                    return
                data, mtime = entry
                self._reply(200, data, {"X-Blob-Mtime": f"{mtime:.6f}"})

            def do_PUT(self):
                if self._maybe_fault():
                    return
                self._count("PUT")
                name = self._name()
                if name is None:
                    self._reply(400)
                    return
                length = int(self.headers.get("Content-Length", 0))
                data = self.rfile.read(length)
                conditional = self.headers.get("If-None-Match") == "*"
                if table.put(name, data, if_absent=conditional):
                    self._reply(201, b"created\n")
                else:
                    self._reply(412, b"precondition failed\n")

            def do_DELETE(self):
                if self._maybe_fault():
                    return
                self._count("DELETE")
                name = self._name()
                if name and table.delete(name):
                    self._reply(204)
                else:
                    self._reply(404)

        self._server = _HTTPServer((host, port), Handler)
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def fail_next(self, count: int = 1, mode: str = "drop") -> None:
        """Injure the next ``count`` requests with ``mode`` (module
        docstring; default drops the connection mid-flight)."""
        self.faults.arm(count, mode)

    def set_chaos(self, schedule) -> None:
        """Drive per-request fault decisions from a seeded
        :class:`~repro.service.chaos.ChaosSchedule` (None to clear)."""
        self.faults.set_schedule(schedule)

    def start(self) -> FakeObjectStoreServer:
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

    def serve_forever(self) -> None:
        """Run in the calling thread (``seance store serve-fake``)."""
        self._server.serve_forever()

    def __enter__(self) -> FakeObjectStoreServer:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
