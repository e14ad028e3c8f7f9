"""Unit tests for the content-addressed artifact store."""

import json

import pytest

from repro.service.metrics import MetricsRegistry
from repro.service.store import (
    SCHEMA_VERSION,
    ArtifactStore,
    CacheKey,
    MemoryStore,
    config_fingerprint,
)


def key(**overrides) -> CacheKey:
    base = dict(
        kind="run", workload="micro-tiny", scale="tiny", config="abcd", scheme="baseline"
    )
    base.update(overrides)
    return CacheKey.make(
        base.pop("kind"), base.pop("workload"), base.pop("scale"), base.pop("config"),
        **base,
    )


class TestCacheKey:
    def test_digest_is_stable_and_param_order_free(self):
        a = CacheKey.make("run", "w", "tiny", "cfg", scheme="aj", distance=32)
        b = CacheKey.make("run", "w", "tiny", "cfg", distance=32, scheme="aj")
        assert a.digest() == b.digest()
        assert len(a.digest()) == 64

    def test_digest_changes_with_any_component(self):
        base = key()
        assert key(workload="other").digest() != base.digest()
        assert key(scale="small").digest() != base.digest()
        assert key(config="efgh").digest() != base.digest()
        assert key(scheme="aj").digest() != base.digest()

    def test_config_fingerprint_stable(self):
        from repro.machine.config import MachineConfig

        assert config_fingerprint(MachineConfig()) == config_fingerprint(
            MachineConfig()
        )


class TestConfigFingerprintMemo:
    """The digest is memoized per config object; the memo must never
    change a digest, merge two configs or grow without bound."""

    def test_digests_pin_the_artifact_keys(self):
        # Literal values: every artifact key, serve dedup key and the
        # serve-mixed golden embed these digests.
        from dataclasses import replace

        from repro.machine.config import MachineConfig
        from repro.mem.config import MemoryConfig

        default = MachineConfig(engine="fast")  # the default engine
        assert config_fingerprint(default) == "f0dcfcdf1e5757f6"
        assert config_fingerprint(MemoryConfig()) == "7726a6f882dab6de"
        cell = replace(
            MachineConfig(engine="turbo"),
            memory=default.memory.scaled(2),
        )
        assert config_fingerprint(cell) == "653cdb489eb08430"
        assert config_fingerprint(cell.memory) == "9bdfea767cedf717"
        # Memoized answers equal the computed ones.
        assert config_fingerprint(default) == "f0dcfcdf1e5757f6"
        assert config_fingerprint(cell) == "653cdb489eb08430"

    @pytest.mark.parametrize("float_first", [True, False])
    def test_equal_configs_that_serialize_differently_keep_own_digest(
        self, float_first
    ):
        from repro.mem.config import MemoryConfig

        as_int, as_float = MemoryConfig(), MemoryConfig(dram_latency=200.0)
        assert as_int == as_float  # equal, but their JSON differs
        order = [as_float, as_int] if float_first else [as_int, as_float]
        digests = {id(c): config_fingerprint(c) for c in order}
        assert digests[id(as_int)] == "7726a6f882dab6de"
        assert digests[id(as_float)] == "1d7ddf7e56f22944"
        assert config_fingerprint(as_int) == "7726a6f882dab6de"
        assert config_fingerprint(as_float) == "1d7ddf7e56f22944"

    def test_code_cache_is_ignored(self):
        from repro.machine.config import MachineConfig

        plain = MachineConfig(engine="fast", code_cache=None)
        cached = MachineConfig(engine="fast", code_cache="/somewhere")
        assert config_fingerprint(plain) == config_fingerprint(cached)
        assert config_fingerprint(cached) == "f0dcfcdf1e5757f6"

    def test_memo_stays_bounded(self):
        from repro.mem.config import MemoryConfig
        from repro.service import store

        configs = [
            MemoryConfig(dram_latency=100 + i)
            for i in range(3 * store._FINGERPRINT_MEMO_SIZE)
        ]
        digests = [config_fingerprint(c) for c in configs]
        assert len(set(digests)) == len(configs)
        assert len(store._fingerprint_memo) <= store._FINGERPRINT_MEMO_SIZE


class TestArtifactStore:
    def test_roundtrip_returns_fresh_payloads(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(key(), {"cycles": 123, "nested": {"a": [1, 2]}})
        first = store.get(key())
        second = store.get(key())
        assert first == {"cycles": 123, "nested": {"a": [1, 2]}}
        assert first is not second
        first["nested"]["a"].append(3)
        assert store.get(key()) == second

    def test_miss_returns_none(self, tmp_path):
        assert ArtifactStore(tmp_path).get(key()) is None

    def test_layout_is_schema_versioned_and_sharded(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(key(), {"x": 1})
        digest = key().digest()
        path = (
            tmp_path
            / f"v{SCHEMA_VERSION}"
            / "run"
            / digest[:2]
            / f"{digest}.json"
        )
        assert path.is_file()
        # No leftover temp files from the atomic write.
        assert not list(path.parent.glob(".tmp-*"))

    def test_corrupt_entry_is_quarantined_not_fatal(self, tmp_path):
        metrics = MetricsRegistry()
        store = ArtifactStore(tmp_path, metrics=metrics)
        store.put(key(), {"x": 1})
        path = store._entry_path(key())
        path.write_text("{not json!!")
        assert store.get(key()) is None  # degraded to a miss
        assert not path.exists()
        assert len(list(store.quarantine_dir.iterdir())) == 1
        assert metrics.get("cache.quarantined") == 1
        # A recompute can repopulate the same slot.
        store.put(key(), {"x": 2})
        assert store.get(key()) == {"x": 2}

    def test_key_mismatch_is_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(key(), {"x": 1})
        path = store._entry_path(key())
        raw = json.loads(path.read_text())
        raw["key"]["workload"] = "someone-else"
        path.write_text(json.dumps(raw))
        assert store.get(key()) is None
        assert store.stats()["quarantined"] == 1

    def test_stats_and_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(key(), {"x": 1})
        store.put(key(kind="profile", scheme="x"), {"y": 2})
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["by_kind"] == {"profile": 1, "run": 1}
        assert stats["size_bytes"] > 0
        assert store.clear() == 2
        assert store.stats()["entries"] == 0
        assert store.get(key()) is None

    def test_merge_metrics_accumulates(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.merge_metrics({"cache.hits": 3})
        store.merge_metrics({"cache.hits": 2, "cache.misses": 1})
        assert store.read_metrics() == {"cache.hits": 5, "cache.misses": 1}

    def test_read_metrics_tolerates_garbage(self, tmp_path):
        store = ArtifactStore(tmp_path)
        tmp_path.mkdir(exist_ok=True)
        store.metrics_path.write_text("not json")
        assert store.read_metrics() == {}


class TestMemoryStore:
    def test_roundtrip_fresh_objects(self):
        store = MemoryStore()
        store.put(key(), {"a": [1]})
        first = store.get(key())
        first["a"].append(2)
        assert store.get(key()) == {"a": [1]}

    def test_stats_and_clear(self):
        store = MemoryStore()
        store.put(key(), {"x": 1})
        assert store.stats()["entries"] == 1
        assert store.stats()["by_kind"] == {"run": 1}
        assert store.clear() == 1
        assert store.get(key()) is None


@pytest.mark.parametrize("factory", [MemoryStore, None])
def test_common_interface(tmp_path, factory):
    store = factory() if factory else ArtifactStore(tmp_path)
    assert store.get(key()) is None
    store.put(key(), {"v": 1})
    assert store.get(key()) == {"v": 1}
    assert store.stats()["entries"] == 1
