"""StageCache persistent tier: verified envelopes over any backend.

The persistent tier now speaks :class:`~repro.store.backend
.StoreBackend`, so ``--cache-dir`` can be a directory or an
``http(s)://`` object store — and every blob is a self-describing
envelope (``repro-stage <version> <key>`` header + pickle) verified on
read.  Corruption in any form is a miss counted in ``rejected``, never
an error and never a wrong artifact.
"""

import pickle

import pytest

from repro.bench import benchmark
from repro.pipeline.batch import BatchRunner
from repro.pipeline.cache import StageCache
from repro.pipeline.spec import PipelineSpec
from repro.service import FakeObjectStoreServer
from repro.store.backend import MemoryBackend


class TestEnvelope:
    def test_round_trip_through_a_backend(self):
        cache = StageCache(backend=MemoryBackend())
        cache.put("k1", {"stage": "artifact"})
        fresh = StageCache(backend=cache.backend)
        assert fresh.get("k1") == {"stage": "artifact"}
        assert fresh.hits == 1 and fresh.rejected == 0

    def test_blob_carries_the_envelope_header(self):
        backend = MemoryBackend()
        StageCache(backend=backend).put("k1", {"a": 1})
        blob = backend.read("k1.pkl")
        assert blob.startswith(b"repro-stage 1 k1\n")

    def test_legacy_raw_pickle_is_a_clean_miss(self, tmp_path):
        """Pre-envelope cache directories (bare pickles) read as
        misses, not crashes — old caches degrade to recompute."""
        (tmp_path / "oldkey.pkl").write_bytes(
            pickle.dumps({"stale": True})
        )
        cache = StageCache(path=tmp_path)
        assert cache.get("oldkey") is None
        assert cache.rejected == 1

    def test_truncated_blob_is_a_clean_miss(self):
        backend = MemoryBackend()
        cache = StageCache(backend=backend)
        cache.put("k1", {"a": 1})
        blob = backend.read("k1.pkl")
        backend.write("k1.pkl", blob[: len(blob) - 4])
        fresh = StageCache(backend=backend)
        assert fresh.get("k1") is None
        assert fresh.rejected == 1

    def test_cross_wired_blob_is_a_clean_miss(self):
        """A blob copied under another key's name fails the header's
        key check — the cache can never serve the wrong stage."""
        backend = MemoryBackend()
        cache = StageCache(backend=backend)
        cache.put("k1", {"a": 1})
        backend.write("k2.pkl", backend.read("k1.pkl"))
        fresh = StageCache(backend=backend)
        assert fresh.get("k2") is None
        assert fresh.rejected == 1

    def test_non_dict_payload_is_a_clean_miss(self):
        backend = MemoryBackend()
        cache = StageCache(backend=backend)
        backend.write(
            "k1.pkl",
            cache._header("k1") + pickle.dumps(["not", "a", "dict"]),
        )
        assert cache.get("k1") is None
        assert cache.rejected == 1

    def test_directory_tier_still_globs_as_pkl(self, tmp_path):
        """Compat pin: a cache directory remains flat ``<key>.pkl``."""
        cache = StageCache(path=tmp_path)
        cache.put("abc123", {"x": 1})
        assert [p.name for p in tmp_path.glob("*.pkl")] == ["abc123.pkl"]


class TestNetworkedTier:
    def test_fleet_shares_warm_stages_over_the_wire(self):
        """Two separate cache instances (two 'machines') against one
        object store: the second run's stages are all warm."""
        table = benchmark("lion")
        spec = PipelineSpec()
        with FakeObjectStoreServer() as server:
            first = StageCache(path=server.url)
            BatchRunner(spec=spec, jobs=1, cache=first).run([table])
            assert first.stores > 0

            second = StageCache(path=server.url)
            [item] = BatchRunner(
                spec=spec, jobs=1, cache=second
            ).run([table])
            assert item.ok
            assert second.hits > 0
            assert len(item.cache_hits) == len(item.result.stage_seconds)

    def test_unreachable_tier_degrades_to_recompute(self):
        with FakeObjectStoreServer() as server:
            url = server.url
        cache = StageCache(path=url)
        cache._backend._timeout = 0.5
        cache.put("k1", {"a": 1})  # write degrades silently
        assert cache.get("k1") == {"a": 1}  # memory tier still serves
        assert StageCache(path=url)._backend is not None
