"""The networked store backend: blobs over an object-store HTTP API.

:class:`ObjectStoreBackend` speaks the S3/GCS shape — keyed blobs over
HTTP with GET / PUT / conditional PUT (``If-None-Match: *``) / DELETE /
HEAD and list-by-prefix.  Any server speaking this minimal surface
works; :class:`repro.service.fakes.FakeObjectStoreServer` (also
``seance store serve-fake``) is the in-process stand-in the tests and
CI smoke run against — over a real socket, so the client's framing,
quoting, reconnects and error paths are genuinely exercised.  It
carries the result store and the work queue built on it: the envelopes
above it are verified on read, so one blob protocol serves both.

Failure semantics follow the :class:`~repro.store.backend.StoreBackend`
contract exactly: a dead server, a truncated response, or a poisoned
blob surfaces as *absence* (reads return None, writes degrade,
conditional writes report False) — the verification layer above
recomputes, and correctness never depends on the network.  Degradation
is **policied and counted** rather than silent: every operation runs
under a :class:`~repro.service.resilience.RetryPolicy` (bounded
retries, deterministic-jitter backoff, per-operation timeout) behind a
per-backend :class:`~repro.service.resilience.CircuitBreaker`, with
every fault, retry, and short-circuit tallied in
:class:`~repro.service.resilience.TransportTelemetry` (surfaced by
``seance store verify``).

Two wrinkles make retrying safe:

* a server error (HTTP ≥ 500) is treated as a transient fault and
  retried, exactly like a broken socket;
* **conditional puts replay their precondition**: a retried
  ``write_if_absent`` that now answers "already present" *after a
  fault* may be colliding with its own earlier attempt whose response
  was lost — the client reads the blob back and claims victory only on
  byte equality, so a retry can never turn one lease into two.

The client is thread-safe (one lock around the shared connection).
``--retry`` / ``--timeout`` on the CLI or ``?retry=N&timeout=S`` on the
store URL tune the policy per location.
"""

from __future__ import annotations

import threading
import time
import urllib.parse
from collections.abc import Iterator
from http.client import HTTPConnection, HTTPException

from ..service.resilience import (
    CircuitBreaker,
    RetryPolicy,
    TransportTelemetry,
)
from .backend import BlobStat, StoreBackend


class _ServerFault(Exception):
    """A reply that means *try again*, not *absent*: HTTP ≥ 500 — the
    server is alive but momentarily unwell."""


class ObjectStoreBackend(StoreBackend):
    """Blobs over HTTP, object-store style (``--store http://host:port``).

    Verbs, all under ``<base>/b/<name>``:

    * ``GET`` — 200 with the bytes, 404 when absent;
    * ``PUT`` — unconditional publish; with ``If-None-Match: *`` the
      server answers 412 instead of overwriting (the lease primitive);
    * ``DELETE`` — 204/404;
    * ``HEAD`` — ``Content-Length`` + ``X-Blob-Mtime`` metadata;

    plus ``GET <base>/list?prefix=...`` returning a JSON name array.

    ``?retry=N&timeout=S`` in the URL query tunes the transport policy
    for this location; an explicit ``policy`` (or ``timeout``) argument
    is the base those knobs override.  The connection lock is held for
    a whole operation (its attempts share one socket), while the
    breaker and telemetry are internally thread-safe.
    """

    def __init__(
        self,
        url: str,
        timeout: float | None = None,
        policy: RetryPolicy | None = None,
    ):
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme not in ("http", "https"):
            raise ValueError(f"object store URL must be http(s), got {url!r}")
        self.url = url.rstrip("/")
        self._host = parsed.hostname or "localhost"
        self._port = parsed.port or (443 if parsed.scheme == "https" else 80)
        self._base = parsed.path.rstrip("/")
        policy = RetryPolicy.from_query(parsed.query, base=policy)
        self.policy = policy.merged(timeout=timeout)
        self.breaker = CircuitBreaker(
            threshold=self.policy.breaker_threshold,
            reset_after=self.policy.breaker_reset,
        )
        self.telemetry = TransportTelemetry()
        self._lock = threading.Lock()
        self._connection: HTTPConnection | None = None

    # ------------------------------------------------------------------
    def _connect(self) -> HTTPConnection:
        if self._connection is None:
            self._connection = HTTPConnection(
                self._host, self._port, timeout=self.policy.timeout
            )
        return self._connection

    def _drop(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
            self._connection = None

    def _attempt(
        self, method: str, path: str, body: bytes | None, headers: dict
    ) -> tuple[int, bytes, dict]:
        """One wire attempt; raises on anything that means *retry*."""
        connection = self._connect()
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        payload = response.read()
        if response.status >= 500:
            raise _ServerFault(f"{response.status} on {method}")
        if (
            method != "HEAD"
            and response.getheader("Transfer-Encoding") is None
        ):
            # A response torn inside the header block parses as a
            # complete response with an EOF-delimited body — the one
            # truncation http.client cannot detect.  Every honest
            # reply in this protocol declares its length.
            declared = response.getheader("Content-Length")
            try:
                expected = int(declared)
            except (TypeError, ValueError):
                raise OSError(
                    f"torn response headers on {method} "
                    f"(Content-Length {declared!r})"
                ) from None
            if len(payload) != expected:
                raise OSError(
                    f"truncated body on {method}: "
                    f"{len(payload)} != {expected}"
                )
        return (
            response.status,
            payload,
            {k.lower(): v for k, v in response.getheaders()},
        )

    def _request(
        self, method: str, path: str, body: bytes | None = None,
        headers: dict | None = None,
    ) -> tuple[int, bytes, dict] | None:
        """One operation under the policy; None when it exhausts its
        retries or the breaker short-circuits it (absence)."""
        with self._lock:
            if not self.breaker.allow():
                self.telemetry.record_short_circuit(method)
                return None
            self.telemetry.record_op(method)
            for index in range(self.policy.retries + 1):
                try:
                    reply = self._attempt(method, path, body, headers or {})
                except (OSError, HTTPException, _ServerFault):
                    self._drop()
                    self.telemetry.record_fault(method)
                    if index < self.policy.retries:
                        self.telemetry.record_retry(method)
                        time.sleep(
                            self.policy.delay(f"{method} {path}", index)
                        )
                    continue
                self.breaker.record_success()
                return reply
            self.breaker.record_failure()
            return None

    def _blob_path(self, name: str) -> str:
        return f"{self._base}/b/{urllib.parse.quote(name, safe='/')}"

    # ------------------------------------------------------------------
    def read(self, name: str) -> bytes | None:
        reply = self._request("GET", self._blob_path(name))
        if reply is None or reply[0] != 200:
            return None
        return reply[1]

    def write(self, name: str, data: bytes) -> None:
        self._request("PUT", self._blob_path(name), body=data)

    def write_if_absent(self, name: str, data: bytes) -> bool:
        data = bytes(data)
        faults_before = self.telemetry.faults
        reply = self._request(
            "PUT",
            self._blob_path(name),
            body=data,
            headers={"If-None-Match": "*"},
        )
        if reply is not None and reply[0] in (200, 201):
            return True
        if (
            reply is not None
            and reply[0] == 412
            and self.telemetry.faults > faults_before
        ):
            # Precondition replay (lease safety): a 412 on a *retried*
            # attempt may mean our own earlier PUT won but its response
            # was lost.  Byte equality decides; a stale or foreign blob
            # reads as defeat, which degrades to duplicated work only.
            return self.read(name) == data
        return False

    def delete(self, name: str) -> bool:
        reply = self._request("DELETE", self._blob_path(name))
        return reply is not None and reply[0] in (200, 204)

    def stat(self, name: str) -> BlobStat | None:
        reply = self._request("HEAD", self._blob_path(name))
        if reply is None or reply[0] != 200:
            return None
        headers = reply[2]
        try:
            return BlobStat(
                size=int(headers.get("content-length", 0)),
                mtime=float(headers.get("x-blob-mtime", 0.0)),
            )
        except ValueError:
            return None

    def names(self, prefix: str = "") -> Iterator[str]:
        import json

        query = urllib.parse.urlencode({"prefix": prefix})
        reply = self._request("GET", f"{self._base}/list?{query}")
        if reply is None or reply[0] != 200:
            return
        try:
            listed = json.loads(reply[1].decode())
        except (ValueError, UnicodeDecodeError):
            return
        if isinstance(listed, list):
            yield from [str(name) for name in listed]

    def describe(self) -> str:
        return f"ObjectStoreBackend({self.url!r})"
