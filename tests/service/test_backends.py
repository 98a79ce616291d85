"""The networked store backend against its in-process fake server.

The object-store backend speaks HTTP over a real socket to
:class:`~repro.service.fakes.FakeObjectStoreServer`.  The contract
under test is the :class:`~repro.store.backend.StoreBackend` protocol —
the same one DirectoryBackend satisfies — plus the service-grade parts:
conditional put (the queue's lease primitive), fail-safe degradation
when the server drops requests, and reply latency.

The protocol suite runs **two ways**: clean, and under a seeded chaos
schedule injecting *transparent* faults
(drop / reset / 500 / delay — the request never processed, or merely
slowed) with a patient retry policy.  Under those faults every
assertion must hold byte-identically to the clean run: that is the
degrade-to-recompute-never-wrong-bytes invariant at the protocol
level.  ``truncate`` (request *processed*, response torn) and
``stale`` are deliberately excluded here — the first makes
delete-returns-False semantics unknowable, the second breaks
read-your-writes by design — and get targeted coverage in
``test_chaos.py`` instead.
"""

import statistics
import time
import zlib

import pytest

from repro.bench import benchmark
from repro.pipeline import PassManager
from repro.pipeline.spec import PipelineSpec
from repro.errors import StoreError
from repro.service import FakeObjectStoreServer
from repro.service.chaos import ChaosSchedule
from repro.service.resilience import RetryPolicy
from repro.store import ResultStore
from repro.store.backend import (
    DirectoryBackend,
    MemoryBackend,
    resolve_backend,
)
from repro.store.net import ObjectStoreBackend

#: Fault modes that never process the request (retries are transparent).
TRANSPARENT_MODES = ("drop", "delay", "error", "reset")

#: Rides out any one-test fault streak without tripping the breaker.
PATIENT = RetryPolicy(
    retries=8, timeout=5.0, backoff_base=0.01, backoff_max=0.05,
    breaker_threshold=1000,
)


@pytest.fixture(scope="module")
def object_server():
    with FakeObjectStoreServer() as server:
        yield server


@pytest.fixture
def object_backend(object_server):
    backend = ObjectStoreBackend(object_server.url)
    yield backend
    for name in backend.names():
        backend.delete(name)


@pytest.fixture(params=["object", "object-chaos"])
def backend(request, object_server):
    server = object_server
    if request.param.endswith("-chaos"):
        # One stable seed per test: reruns see the same fault plan.
        seed = zlib.crc32(request.node.name.encode())
        server.set_chaos(
            ChaosSchedule(
                seed=seed, rate=0.25, modes=TRANSPARENT_MODES
            )
        )
        backend = ObjectStoreBackend(server.url, policy=PATIENT)
    else:
        backend = ObjectStoreBackend(server.url)
    yield backend
    server.set_chaos(None)
    for name in backend.names():
        backend.delete(name)


# ----------------------------------------------------------------------
# The StoreBackend protocol, over a real socket
# ----------------------------------------------------------------------
class TestProtocol:
    def test_round_trip(self, backend):
        backend.write("kind/a.json", b"alpha")
        assert backend.read("kind/a.json") == b"alpha"

    def test_read_absent_is_none(self, backend):
        assert backend.read("kind/nothing.json") is None

    def test_overwrite(self, backend):
        backend.write("k/x", b"one")
        backend.write("k/x", b"two")
        assert backend.read("k/x") == b"two"

    def test_binary_payloads_survive(self, backend):
        blob = bytes(range(256)) * 5
        backend.write("bin/blob", blob)
        assert backend.read("bin/blob") == blob

    def test_delete(self, backend):
        backend.write("k/x", b"data")
        assert backend.delete("k/x") is True
        assert backend.read("k/x") is None
        assert backend.delete("k/x") is False

    def test_stat(self, backend):
        before = time.time() - 1
        backend.write("k/x", b"12345")
        stat = backend.stat("k/x")
        assert stat is not None
        assert stat.size == 5
        assert stat.mtime >= before
        assert backend.stat("k/absent") is None

    def test_names_prefix(self, backend):
        backend.write("synthesis/a.json", b"1")
        backend.write("synthesis/b.json", b"2")
        backend.write("validation/c.json", b"3")
        assert sorted(backend.names("synthesis/")) == [
            "synthesis/a.json",
            "synthesis/b.json",
        ]
        assert len(list(backend.names())) == 3

    def test_write_if_absent_is_atomic_claim(self, backend):
        assert backend.write_if_absent("lease/x", b"mine") is True
        assert backend.write_if_absent("lease/x", b"theirs") is False
        assert backend.read("lease/x") == b"mine"

    def test_write_if_absent_after_delete(self, backend):
        backend.write_if_absent("lease/x", b"first")
        backend.delete("lease/x")
        assert backend.write_if_absent("lease/x", b"second") is True
        assert backend.read("lease/x") == b"second"


# ----------------------------------------------------------------------
# Fail-safety: dropped requests degrade, never corrupt
# ----------------------------------------------------------------------
class TestFaults:
    def test_object_store_read_survives_dropped_request(
        self, object_server, object_backend
    ):
        object_backend.write("k/x", b"payload")
        object_server.fail_next(1)
        # The dropped request reads as a miss (absence semantics) or
        # succeeds after reconnect; either way the next read is whole.
        object_backend.read("k/x")
        assert object_backend.read("k/x") == b"payload"

    def test_unreachable_server_reads_as_absent(self):
        with FakeObjectStoreServer() as server:
            url = server.url
        backend = ObjectStoreBackend(url, timeout=0.5)
        assert backend.read("k/x") is None
        assert backend.stat("k/x") is None
        assert list(backend.names()) == []


# ----------------------------------------------------------------------
# Reply latency: a body must not wait on the client's delayed ACK
# ----------------------------------------------------------------------
class TestReplyLatency:
    """A reply with a body goes out as a header write plus a body
    write; with Nagle on, the body waits for the client's delayed ACK
    (~40 ms per request on loopback).  HEAD replies carry no body and
    never stall, so they are the per-request baseline."""

    ROUNDS = 20
    BLOB = bytes(range(256)) * 16  # 4 KB

    @staticmethod
    def _median_seconds(operation, rounds: int) -> float:
        samples = []
        for _ in range(rounds):
            start = time.perf_counter()
            operation()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    def test_body_replies_do_not_stall(self, object_backend):
        name = "latency/blob"
        object_backend.write(name, self.BLOB)
        assert object_backend.read(name) == self.BLOB
        head = self._median_seconds(
            lambda: object_backend.stat(name), self.ROUNDS
        )
        get = self._median_seconds(
            lambda: object_backend.read(name), self.ROUNDS
        )
        put = self._median_seconds(
            lambda: object_backend.write(name, self.BLOB), self.ROUNDS
        )
        bound = 3 * head + 0.005
        assert get <= bound, (get, head)
        assert put <= bound, (put, head)


# ----------------------------------------------------------------------
# resolve_backend dispatch and the store on top
# ----------------------------------------------------------------------
class TestResolve:
    def test_http_url(self, object_server):
        assert isinstance(
            resolve_backend(object_server.url), ObjectStoreBackend
        )

    @pytest.mark.parametrize(
        "location", ["cache://127.0.0.1:1", "s3://b", "redis://h:1/x"]
    )
    def test_unknown_scheme_is_rejected(self, location, tmp_path,
                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(StoreError, match="http"):
            resolve_backend(location)
        with pytest.raises(StoreError):
            ResultStore(location)
        assert list(tmp_path.iterdir()) == []

    def test_path(self, tmp_path):
        assert isinstance(
            resolve_backend(tmp_path / "d"), DirectoryBackend
        )

    def test_backend_passthrough(self):
        backend = MemoryBackend()
        assert resolve_backend(backend) is backend

    def test_result_store_over_the_wire(self, object_server):
        """The full verified-envelope round trip through a socket."""
        table = benchmark("lion")
        spec = PipelineSpec()
        result = PassManager().run(table)
        writer = ResultStore(object_server.url)
        writer.put_synthesis(table, spec, result)
        reader = ResultStore(object_server.url)  # separate connection
        stored = reader.get_synthesis(table, spec)
        assert stored is not None and stored.ok
        assert stored.result.to_dict() == result.to_dict()
