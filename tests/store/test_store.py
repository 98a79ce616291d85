"""ResultStore: verified envelopes, golden round-trips, fail-safety.

The fail-safe contract under test: **no state of the store may ever
change a result** — a truncated blob, a blob whose content belongs to a
different key, an incompatible format version, or two writers racing on
one key can cost a recomputation but must never return a poisoned
result.
"""

import json
import threading

import pytest

from repro import api
from repro.bench import benchmark, benchmark_names
from repro.pipeline import PassManager
from repro.pipeline.spec import PipelineSpec
from repro.store import (
    STORE_FORMAT_VERSION,
    ResultStore,
    synthesis_key,
    validation_key,
)
from tests.store.test_keys import NON_DEFAULT_OPTIONS


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def blob_path(store, key):
    return store.backend.path / key.blob_name


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------
class TestGoldenRoundTrip:
    """Satellite pin: a store round-trip of every golden-suite result
    is byte-identical to ``to_dict()`` — including ``stage_seconds``,
    because the store archives the *full* wire form."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_roundtrip_byte_identical_to_to_dict(self, name, store):
        table = benchmark(name)
        result = PassManager().run(table)
        spec = PipelineSpec()
        store.put_synthesis(table, spec, result)
        stored = store.get_synthesis(table, spec)
        assert stored is not None and stored.ok
        assert json.dumps(
            stored.result.to_dict(), sort_keys=True
        ) == json.dumps(result.to_dict(), sort_keys=True)

    @pytest.mark.parametrize("option", sorted(NON_DEFAULT_OPTIONS))
    def test_roundtrip_under_each_non_default_option(self, option, store):
        """A result synthesised under other options round-trips
        byte-identical under its own spec, and only under it."""
        table = benchmark("lion")
        spec = PipelineSpec().with_options(
            **{option: NON_DEFAULT_OPTIONS[option]}
        )
        result = PassManager().run(table, spec.options)
        store.put_synthesis(table, spec, result)
        stored = store.get_synthesis(table, spec)
        assert stored is not None and stored.ok
        assert json.dumps(
            stored.result.to_dict(), sort_keys=True
        ) == json.dumps(result.to_dict(), sort_keys=True)
        assert store.get_synthesis(table, PipelineSpec()) is None

    def test_synthesis_error_roundtrip(self, store):
        table = benchmark("lion")
        spec = PipelineSpec()
        store.put_synthesis_error(table, spec, "no USTT assignment")
        stored = store.get_synthesis(table, spec)
        assert stored is not None and not stored.ok
        assert stored.error == "no USTT assignment"

    def test_validation_roundtrip(self, store):
        report = api.load("hazard_demo").validate(
            sweep=1, steps=5, delay_models=("unit",)
        )
        summary = report.cells[0].summary
        key = validation_key(
            benchmark("hazard_demo"),
            PipelineSpec(),
            model="unit",
            seed=0,
            steps=5,
            engine="compiled",
            use_fsv=True,
        )
        store.put_validation(key, summary)
        replayed = store.get_validation(key)
        assert replayed is not None
        assert replayed.cycles == summary.cycles


# ----------------------------------------------------------------------
# Key discrimination
# ----------------------------------------------------------------------
class TestKeys:
    def test_different_tables_different_keys(self):
        spec = PipelineSpec()
        keys = {
            synthesis_key(benchmark(name), spec).digest
            for name in benchmark_names()
        }
        assert len(keys) == len(benchmark_names())

    def test_spec_options_and_passes_change_the_key(self, monkeypatch):
        from repro.pipeline import DEFAULT_PIPELINE
        from repro.pipeline import spec as spec_module

        table = benchmark("lion")
        base = synthesis_key(table, PipelineSpec())
        unprotected = synthesis_key(
            table, PipelineSpec().with_options(hazard_correction=False)
        )
        monkeypatch.setattr(
            spec_module, "DEFAULT_PIPELINE", (*DEFAULT_PIPELINE, "extra")
        )
        grown = synthesis_key(table, PipelineSpec())
        assert len({base.digest, unprotected.digest, grown.digest}) == 3

    def test_cache_config_does_not_change_the_key(self):
        """A spec file from a build with a stage cache keys like today's."""
        table = benchmark("lion")
        legacy = dict(PipelineSpec().to_dict(), cache={"enabled": False})
        assert (
            synthesis_key(table, PipelineSpec()).digest
            == synthesis_key(table, PipelineSpec.from_dict(legacy)).digest
        )

    def test_validation_workload_parameters_discriminate(self):
        table = benchmark("lion")
        spec = PipelineSpec()

        def key(**overrides):
            params = dict(
                model="unit", seed=0, steps=10,
                engine="compiled", use_fsv=True,
            )
            params.update(overrides)
            return validation_key(table, spec, **params).digest

        digests = [
            key(),
            key(model="loop-safe"),
            key(seed=1),
            key(steps=11),
            key(engine="reference"),
            key(use_fsv=False),
        ]
        assert len(set(digests)) == len(digests)


# ----------------------------------------------------------------------
# Corruption and poisoning (satellite: fail safe, never poisoned)
# ----------------------------------------------------------------------
class TestFailSafety:
    def seeded(self, store):
        table = benchmark("lion")
        spec = PipelineSpec()
        result = PassManager().run(table)
        store.put_synthesis(table, spec, result)
        return table, spec, result

    def test_truncated_blob_is_a_miss(self, store):
        table, spec, _ = self.seeded(store)
        path = blob_path(store, synthesis_key(table, spec))
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert store.get_synthesis(table, spec) is None
        assert store.rejected == 1

    def test_empty_blob_is_a_miss(self, store):
        table, spec, _ = self.seeded(store)
        blob_path(store, synthesis_key(table, spec)).write_bytes(b"")
        assert store.get_synthesis(table, spec) is None
        assert store.rejected == 1

    def test_wrong_fingerprint_blob_is_a_miss(self, store):
        """A blob whose *content* belongs to another key — a mis-filed
        upload, a colliding copy — must be rejected, not returned."""
        table, spec, _ = self.seeded(store)
        other = benchmark("traffic")
        store.put_synthesis(other, spec, PassManager().run(other))
        lion_key = synthesis_key(table, spec)
        traffic_key = synthesis_key(other, spec)
        # File traffic's (valid, complete) blob under lion's digest.
        blob_path(store, lion_key).write_bytes(
            blob_path(store, traffic_key).read_bytes()
        )
        assert store.get_synthesis(table, spec) is None
        assert store.rejected == 1
        # The mis-filed copy did not damage the original.
        stored = store.get_synthesis(other, spec)
        assert stored is not None and stored.ok

    def test_wrong_format_version_is_a_miss(self, store):
        table, spec, _ = self.seeded(store)
        path = blob_path(store, synthesis_key(table, spec))
        envelope = json.loads(path.read_bytes())
        envelope["format"] = STORE_FORMAT_VERSION + 1
        path.write_bytes(json.dumps(envelope).encode())
        assert store.get_synthesis(table, spec) is None
        assert store.rejected == 1

    def test_valid_envelope_garbage_payload_is_a_miss(self, store):
        table, spec, _ = self.seeded(store)
        key = synthesis_key(table, spec)
        store.put(key, {"ok": True, "result": {"artifacts": "nonsense"}})
        assert store.get_synthesis(table, spec) is None
        assert store.rejected == 1

    def test_corrupt_store_recomputes_through_batch(self, store):
        """End to end: a poisoned store costs a recompute, silently."""
        from repro.pipeline.batch import BatchRunner

        table, spec, result = self.seeded(store)
        path = blob_path(store, synthesis_key(table, spec))
        path.write_bytes(b'{"not": "an envelope"}')
        items = BatchRunner(store=store).run([table])
        assert items[0].ok and not items[0].store_hit
        assert json.dumps(
            items[0].result.to_dict()["artifacts"], sort_keys=True
        ) == json.dumps(result.to_dict()["artifacts"], sort_keys=True)
        # ... and the recompute healed the blob.
        items = BatchRunner(store=store).run([table])
        assert items[0].store_hit


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
class TestConcurrentWriters:
    def test_two_writers_racing_on_one_key(self, tmp_path):
        """N threads × M puts on the same key over one directory: every
        interleaving must leave a complete, verifiable blob."""
        table = benchmark("lion")
        spec = PipelineSpec()
        result = PassManager().run(table)
        stores = [ResultStore(tmp_path / "race") for _ in range(4)]
        barrier = threading.Barrier(len(stores))
        errors = []

        def writer(store):
            try:
                barrier.wait()
                for _ in range(10):
                    store.put_synthesis(table, spec, result)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(s,)) for s in stores
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        reader = ResultStore(tmp_path / "race")
        stored = reader.get_synthesis(table, spec)
        assert stored is not None and stored.ok
        assert reader.rejected == 0
        assert json.dumps(
            stored.result.to_dict(), sort_keys=True
        ) == json.dumps(result.to_dict(), sort_keys=True)

    def test_concurrent_readers_and_writers(self, tmp_path):
        table = benchmark("traffic")
        spec = PipelineSpec()
        result = PassManager().run(table)
        writer_store = ResultStore(tmp_path / "rw")
        reader_store = ResultStore(tmp_path / "rw")
        stop = threading.Event()
        poisoned = []

        def reader():
            while not stop.is_set():
                stored = reader_store.get_synthesis(table, spec)
                # Misses are legal mid-race; a poisoned hit is not.
                if stored is not None and stored.ok:
                    if stored.result.table1_row() != result.table1_row():
                        poisoned.append(stored)

        thread = threading.Thread(target=reader)
        thread.start()
        for _ in range(20):
            writer_store.put_synthesis(table, spec, result)
        stop.set()
        thread.join()
        assert not poisoned


# ----------------------------------------------------------------------
# Blob encoding: compact on write, any JSON layout on read
# ----------------------------------------------------------------------
class TestEnvelopeEncoding:
    def seeded(self, store):
        table = benchmark("lion")
        spec = PipelineSpec()
        result = PassManager().run(table)
        store.put_synthesis(table, spec, result)
        path = blob_path(store, synthesis_key(table, spec))
        return table, spec, result, path

    def test_blobs_are_written_compact(self, store):
        *_, path = self.seeded(store)
        blob = path.read_bytes()
        envelope = json.loads(blob)
        assert blob == (
            json.dumps(envelope, sort_keys=True, separators=(",", ":"))
            + "\n"
        ).encode()

    def test_two_encodes_of_one_envelope_are_identical(self):
        from repro.store.store import _encode

        result = PassManager().run(benchmark("lion"))
        envelope = {
            "format": STORE_FORMAT_VERSION,
            "key": synthesis_key(benchmark("lion"), PipelineSpec()).to_dict(),
            "payload": {"ok": True, "result": result.to_dict()},
        }
        copy = json.loads(json.dumps(envelope))
        assert _encode(envelope) == _encode(envelope) == _encode(copy)

    def test_an_indented_blob_still_reads_and_verifies(
        self, tmp_path, capsys
    ):
        """Blobs written before the compact encoding stay hits."""
        from repro.cli import main

        store = ResultStore(tmp_path / "store")
        table, spec, result, path = self.seeded(store)
        envelope = json.loads(path.read_bytes())
        path.write_bytes(
            (json.dumps(envelope, indent=2, sort_keys=True) + "\n").encode()
        )
        reader = ResultStore(tmp_path / "store")
        stored = reader.get_synthesis(table, spec)
        assert stored is not None and stored.ok
        assert stored.result.table1_row() == result.table1_row()
        assert (reader.hits, reader.rejected) == (1, 0)
        assert main(["store", "verify", "--store", str(path.parents[1])]) == 0
        assert "1 ok, 0 rejected" in capsys.readouterr().out

    @pytest.mark.parametrize("keep", [0.25, 0.5, 0.99])
    def test_a_truncated_compact_blob_is_rejected(self, store, keep):
        table, spec, _, path = self.seeded(store)
        blob = path.read_bytes()
        path.write_bytes(blob[: int(len(blob) * keep)])
        assert store.get_synthesis(table, spec) is None
        assert store.rejected == 1
