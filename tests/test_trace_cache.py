"""Tests for the persistent trace/scenario cache (repro.sim.cache)."""

import numpy as np
import pytest

from repro.core import measure_reduction_from_trace, reduction
from repro.sim import build_scenario, cache, scenario
from repro.sim.scenario import _cached_scenario, _cached_trace
from repro.trace import TraceGenerator


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """A fresh cache rooted in a per-test temp dir."""
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "cache"))
    monkeypatch.delenv(cache.ENV_NO_CACHE, raising=False)
    return tmp_path / "cache"


def scenario_kwargs(**overrides):
    base = dict(
        n_nodes=150,
        duration=200.0,
        dt=10.0,
        seed=3,
        side_meters=4000.0,
        collector_spacing=500.0,
        reduction_samples=4,
    )
    base.update(overrides)
    return base


def fresh_build(**overrides):
    """build_scenario as a cold process would see it (memo cleared)."""
    _cached_scenario.cache_clear()
    _cached_trace.cache_clear()
    return build_scenario(**scenario_kwargs(**overrides))


class TestCacheKey:
    def test_stable_for_identical_specs(self):
        a = cache.cache_key("trace", n_nodes=10, seed=7)
        b = cache.cache_key("trace", seed=7, n_nodes=10)
        assert a == b

    def test_differs_across_specs_and_kinds(self):
        base = cache.cache_key("trace", n_nodes=10, seed=7)
        assert cache.cache_key("trace", n_nodes=11, seed=7) != base
        assert cache.cache_key("reduction", n_nodes=10, seed=7) != base


class TestTraceStoreLoad:
    def test_roundtrip_bit_identical(self, cache_dir, small_trace):
        key = cache.cache_key("test-trace", run=1)
        cache.store_trace(key, small_trace)
        loaded = cache.load_trace(key)
        np.testing.assert_array_equal(loaded.positions, small_trace.positions)
        np.testing.assert_array_equal(loaded.velocities, small_trace.velocities)
        assert loaded.bounds == small_trace.bounds

    def test_miss_returns_none(self, cache_dir):
        assert cache.load_trace("0" * 32) is None

    def test_corrupt_entry_is_a_miss(self, cache_dir, small_trace):
        key = cache.cache_key("test-trace", run=2)
        cache.store_trace(key, small_trace)
        cache.trace_path(key).write_bytes(b"not an npz file")
        assert cache.load_trace(key) is None

    def test_disabled_cache_neither_stores_nor_loads(self, cache_dir, small_trace):
        key = cache.cache_key("test-trace", run=3)
        cache.set_cache_enabled(False)
        try:
            cache.store_trace(key, small_trace)
            assert not cache.trace_path(key).exists()
            cache.set_cache_enabled(True)
            cache.store_trace(key, small_trace)
            cache.set_cache_enabled(False)
            assert cache.load_trace(key) is None
        finally:
            cache.set_cache_enabled(True)
        assert cache.load_trace(key) is not None

    def test_no_stray_temp_files(self, cache_dir, small_trace):
        cache.store_trace(cache.cache_key("test-trace", run=4), small_trace)
        assert not list(cache_dir.rglob("*.tmp.npz"))


class TestReductionStoreLoad:
    def test_roundtrip_bit_identical(self, cache_dir, small_trace):
        reduction = measure_reduction_from_trace(small_trace, 5.0, 100.0, n_samples=4)
        key = cache.cache_key("test-reduction", run=1)
        cache.store_reduction(key, reduction)
        loaded = cache.load_reduction(key)
        np.testing.assert_array_equal(loaded.knots, reduction.knots)
        np.testing.assert_array_equal(loaded.values, reduction.values)
        assert loaded.f(17.0) == reduction.f(17.0)
        assert loaded.r(17.0) == reduction.r(17.0)

    def test_miss_returns_none(self, cache_dir):
        assert cache.load_reduction("0" * 32) is None


class TestScenarioBuildThroughCache:
    def test_disk_hit_reproduces_cold_build(self, cache_dir, monkeypatch):
        cold = fresh_build()
        assert cache.trace_path(
            cache.cache_key(
                "default-scene-trace",
                n_nodes=150,
                duration=200.0,
                dt=10.0,
                seed=3,
                side_meters=4000.0,
                collector_spacing=500.0,
            )
        ).exists()
        # Memo cleared and regeneration booby-trapped: the warm build
        # can only succeed by loading both artifacts from disk.
        def regenerated(*args, **kwargs):
            raise AssertionError("cache miss: artifact was regenerated")

        monkeypatch.setattr(TraceGenerator, "generate", regenerated)
        monkeypatch.setattr(reduction, "measure_reduction_from_trace", regenerated)
        monkeypatch.setattr(scenario, "measure_reduction_from_trace", regenerated)
        warm = fresh_build()
        np.testing.assert_array_equal(warm.trace.positions, cold.trace.positions)
        np.testing.assert_array_equal(
            warm.reduction.values, cold.reduction.values
        )
        assert [q.rect for q in warm.queries] == [q.rect for q in cold.queries]

    def test_stale_format_entries_miss(self, cache_dir, monkeypatch, small_trace):
        """An entry written when ``engine`` was a key field (format 1) is
        never read back: the format bump moved every key."""
        spec = scenario_kwargs()
        del spec["reduction_samples"]
        monkeypatch.setattr(cache, "CACHE_FORMAT_VERSION", 1)
        stale = cache.cache_key("default-scene-trace", engine="fleet", **spec)
        monkeypatch.undo()
        monkeypatch.setenv(cache.ENV_CACHE_DIR, str(cache_dir))
        cache.store_trace(stale, small_trace)
        assert stale != cache.cache_key("default-scene-trace", **spec)
        built = fresh_build()
        assert built.trace.positions.shape != small_trace.positions.shape
        assert len(list((cache_dir / "traces").glob("*.npz"))) == 2

    def test_no_cache_build_writes_nothing(self, cache_dir):
        cache.set_cache_enabled(False)
        try:
            fresh_build()
            assert not (cache_dir / "traces").exists()
        finally:
            cache.set_cache_enabled(True)

    def test_purge_empties_cache(self, cache_dir):
        fresh_build()
        assert cache.purge() >= 2  # trace + reduction
        assert cache.purge() == 0
