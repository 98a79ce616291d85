"""The chaos harness: seeded schedules, the TCP proxy, server modes.

Two layers under test.  :class:`ChaosSchedule` must be reproducible
from its seed (the CI chaos smoke pins one).  :class:`ChaosProxy` and
the fake object store's ``fail_next``/``set_chaos`` modes must injure
traffic in ways the resilient transport absorbs: every assertion here is
*correct-or-miss* — an injected fault may cost a retry or a recompute,
never wrong bytes.
"""

import pytest

from repro.service.chaos import (
    PROXY_MODES,
    SERVER_MODES,
    ChaosProxy,
    ChaosSchedule,
)
from repro.service.fakes import FakeObjectStoreServer
from repro.service.resilience import RetryPolicy
from repro.store.net import ObjectStoreBackend

#: Generous enough to ride out every single-shot fault; breaker never
#: trips so tests stay order-independent.
PATIENT = RetryPolicy(
    retries=8, timeout=5.0, backoff_base=0.01, backoff_max=0.05,
    breaker_threshold=1000,
)


class TestChaosSchedule:
    def test_seed_reproducibility(self):
        a = ChaosSchedule(seed=7, rate=0.5)
        b = ChaosSchedule(seed=7, rate=0.5)
        assert [a.next_fault() for _ in range(200)] == [
            b.next_fault() for _ in range(200)
        ]

    def test_different_seeds_differ(self):
        a = ChaosSchedule(seed=1, rate=0.5)
        b = ChaosSchedule(seed=2, rate=0.5)
        assert [a.next_fault() for _ in range(200)] != [
            b.next_fault() for _ in range(200)
        ]

    def test_rate_zero_never_fires(self):
        schedule = ChaosSchedule(seed=0, rate=0.0)
        assert all(schedule.next_fault() is None for _ in range(100))
        assert schedule.total == 0

    def test_rate_one_always_fires(self):
        schedule = ChaosSchedule(seed=0, rate=1.0)
        faults = [schedule.next_fault() for _ in range(50)]
        assert all(mode in PROXY_MODES for mode in faults)
        assert schedule.total == 50

    def test_limit_caps_total(self):
        schedule = ChaosSchedule(seed=0, rate=1.0, limit=3)
        for _ in range(50):
            schedule.next_fault()
        assert schedule.total == 3

    def test_modes_restricted(self):
        schedule = ChaosSchedule(seed=3, rate=1.0, modes=("delay",))
        assert {schedule.next_fault() for _ in range(20)} == {"delay"}

    def test_empty_modes_rejected(self):
        with pytest.raises(ValueError):
            ChaosSchedule(modes=())

    def test_snapshot_shape(self):
        schedule = ChaosSchedule(seed=5, rate=1.0)
        schedule.next_fault()
        snapshot = schedule.snapshot()
        assert snapshot["seed"] == 5
        assert snapshot["decisions"] == 1
        assert sum(snapshot["injected"].values()) == 1

    def test_server_modes_superset(self):
        assert set(PROXY_MODES) < set(SERVER_MODES)


class TestChaosProxy:
    def test_url_preserves_scheme_and_query(self):
        with FakeObjectStoreServer() as server:
            with ChaosProxy(server.url + "?retry=6&timeout=5") as proxy:
                assert proxy.url.startswith("http://")
                assert proxy.url.endswith("?retry=6&timeout=5")

    def test_clean_passthrough(self):
        with FakeObjectStoreServer() as server:
            schedule = ChaosSchedule(rate=0.0)
            with ChaosProxy(server.url, schedule) as proxy:
                backend = ObjectStoreBackend(proxy.url, policy=PATIENT)
                backend.write("a", b"payload")
                assert backend.read("a") == b"payload"
                assert backend.telemetry.faults == 0

    def test_correct_or_miss_under_faults(self):
        """A hostile proxy costs retries, never wrong bytes."""
        with FakeObjectStoreServer() as server:
            schedule = ChaosSchedule(seed=42, rate=0.4)
            with ChaosProxy(
                server.url, schedule, delay_seconds=0.01
            ) as proxy:
                backend = ObjectStoreBackend(proxy.url, policy=PATIENT)
                blobs = {f"blob/{i}": f"value-{i}".encode() for i in range(12)}
                for name, data in blobs.items():
                    backend.write(name, data)
                for name, data in blobs.items():
                    got = backend.read(name)
                    assert got is None or got == data
            # Every write rode out its faults: the authoritative
            # upstream holds exactly what we wrote.
            direct = ObjectStoreBackend(server.url)
            for name, data in blobs.items():
                assert direct.read(name) == data
        assert schedule.total > 0


class TestServerFaultModes:
    """Each ``fail_next`` mode on the HTTP fake, one surgical shot."""

    @pytest.fixture()
    def server(self):
        with FakeObjectStoreServer() as server:
            yield server

    @pytest.fixture()
    def backend(self, server):
        return ObjectStoreBackend(server.url, policy=PATIENT)

    @pytest.mark.parametrize("mode", ["drop", "reset", "error", "delay"])
    def test_recoverable_modes_are_retried(self, server, backend, mode):
        backend.write("x", b"1")
        server.fail_next(1, mode=mode)
        assert backend.read("x") == b"1"
        if mode != "delay":  # delay processes normally, no fault raised
            assert backend.telemetry.faults >= 1

    def test_truncated_read_is_retried(self, server, backend):
        backend.write("x", b"a-reasonably-long-payload")
        server.fail_next(1, mode="truncate")
        assert backend.read("x") == b"a-reasonably-long-payload"
        assert backend.telemetry.faults >= 1

    def test_truncated_conditional_put_replays(self, server, backend):
        """The lease-safety scenario: the PUT took effect but the
        response tore.  The retry sees 412, reads the blob back, finds
        its own bytes, and reports the lease as won."""
        server.fail_next(1, mode="truncate")
        assert backend.write_if_absent("lease", b"mine") is True
        assert backend.read("lease") == b"mine"
        assert backend.telemetry.faults >= 1

    def test_stale_serves_previous_version(self, server, backend):
        backend.write("s", b"old")
        backend.write("s", b"new")
        server.fail_next(1, mode="stale")
        assert backend.read("s") == b"old"
        assert backend.read("s") == b"new"

    def test_set_chaos_schedule(self, server, backend):
        schedule = ChaosSchedule(
            seed=1, rate=1.0, modes=("error",), limit=2
        )
        server.set_chaos(schedule)
        backend.write("y", b"2")
        assert backend.read("y") == b"2"
        assert schedule.total == 2
        assert backend.telemetry.faults >= 2
