"""Submitting client for the ``seance serve`` front door.

Speaks the server's tiny JSON-over-HTTP surface (one request per
connection, stdlib only).  ``seance submit --server URL tables...``
wraps this; the CI service smoke uses :meth:`ServiceClient.submit_tables`
from concurrent threads and byte-diffs the merged canonical stream
against ``seance batch --json --canonical``.

The client understands the server's hardening layers: ``token`` rides
as ``Authorization: Bearer`` on every request, ``client_id`` as
``X-Client-Id`` (the rate-limit bucket key), and a 429 answer —
throttled or busy — is retried after the server's ``retry_after`` hint,
as long as the submission's overall ``timeout`` budget allows.  Every
other non-200 raises :class:`~repro.errors.StoreError`.
"""

from __future__ import annotations

import json
import time
import urllib.parse
from http.client import HTTPConnection, HTTPException

from ..errors import StoreError
from .resilience import timeout_in_range


class ServiceClient:
    """One front-door endpoint (``http://host:port``)."""

    def __init__(
        self,
        url: str,
        timeout: float = 300.0,
        token: str | None = None,
        client_id: str | None = None,
    ):
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme != "http":
            raise StoreError(
                f"service URL must be http://, got {url!r}"
            )
        if not timeout_in_range(timeout):
            raise StoreError(
                f"service timeout must be a positive number of seconds, "
                f"got {timeout}"
            )
        self.url = url.rstrip("/")
        self._host = parsed.hostname or "localhost"
        self._port = parsed.port or 80
        self._timeout = timeout
        self._token = token
        self._client_id = client_id

    # ------------------------------------------------------------------
    def _headers(self, body: bytes | None) -> dict:
        headers = {}
        if body:
            headers["Content-Type"] = "application/json"
        if self._token is not None:
            headers["Authorization"] = f"Bearer {self._token}"
        if self._client_id is not None:
            headers["X-Client-Id"] = self._client_id
        return headers

    def _request(
        self, method: str, path: str, payload: dict | None = None
    ) -> dict:
        body = (
            json.dumps(payload).encode() if payload is not None else None
        )
        deadline = time.monotonic() + self._timeout
        while True:
            connection = HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
            try:
                connection.request(
                    method, path, body=body, headers=self._headers(body)
                )
                response = connection.getresponse()
                data = response.read()
            except (OSError, HTTPException) as error:
                raise StoreError(
                    f"service at {self.url} unreachable: {error}"
                ) from error
            finally:
                connection.close()
            try:
                decoded = json.loads(data.decode())
            except (ValueError, UnicodeDecodeError) as error:
                raise StoreError(
                    f"service at {self.url} returned a malformed reply"
                ) from error
            if response.status == 429:
                # Throttled or busy: honour the server's pacing hint
                # while the overall timeout budget lasts.
                try:
                    wait = float(decoded.get("retry_after", 0.1))
                except (TypeError, ValueError):
                    wait = 0.1
                wait = min(max(wait, 0.01), 30.0)
                if time.monotonic() + wait < deadline:
                    time.sleep(wait)
                    continue
            if response.status != 200:
                raise StoreError(
                    f"service at {self.url} answered {response.status}: "
                    f"{decoded.get('error', 'unknown error')}"
                )
            return decoded

    # ------------------------------------------------------------------
    def health(self) -> bool:
        try:
            return bool(self._request("GET", "/healthz").get("ok"))
        except StoreError:
            return False

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def submit(self, table, spec=None) -> dict:
        """Submit one flow table (+ optional spec); returns the server's
        outcome dict — the canonical item quadruple (``name``/``ok``/
        ``error``/``result``) plus provenance telemetry (``source``,
        ``store_hit``, ``deduped``, ``passes``, ``events``)."""
        from ..core.serialize import table_to_dict

        payload: dict = {"table": table_to_dict(table)}
        if spec is not None:
            payload["spec"] = spec.to_dict()
        return self._request("POST", "/submit", payload)

    def submit_tables(self, tables, spec=None) -> list[dict]:
        """Submit a table sequence in order (one thread's worth of a
        concurrent client fleet)."""
        return [self.submit(table, spec=spec) for table in tables]

    @staticmethod
    def canonical_items(outcomes: list[dict]) -> list[dict]:
        """Project outcomes to the ``seance batch --json --canonical``
        stream for byte-comparison."""
        return [
            {
                "name": outcome["name"],
                "ok": outcome["ok"],
                "error": outcome["error"],
                "result": outcome["result"],
            }
            for outcome in outcomes
        ]
