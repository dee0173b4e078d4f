"""Tests for the opt-in runtime sanitizers (``repro.sanitize``)."""

from __future__ import annotations

import asyncio
import asyncio.events
import random

import numpy as np
import pytest

from repro import sanitize
from repro.sanitize import (
    GlobalRngGuard,
    RngDisciplineError,
    SlowCallbackDetector,
    rng_discipline,
    vector_errstate,
)
from repro.timing import ManualClock


class TestSwitches:
    @pytest.mark.parametrize("raw", ["1", "true", "YES", " on "])
    def test_enabled_truthy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SANITIZE", raw)
        assert sanitize.enabled()

    @pytest.mark.parametrize("raw", ["", "0", "false", "off", "nope"])
    def test_enabled_falsy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SANITIZE", raw)
        assert not sanitize.enabled()

    def test_enabled_defaults_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize.enabled()

    def test_threshold_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE_SLOW_MS", "250")
        assert sanitize.slow_callback_threshold_s() == pytest.approx(0.25)

    def test_threshold_default_and_garbage(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE_SLOW_MS", raising=False)
        assert sanitize.slow_callback_threshold_s() == pytest.approx(0.1)
        monkeypatch.setenv("REPRO_SANITIZE_SLOW_MS", "soon")
        assert sanitize.slow_callback_threshold_s() == pytest.approx(0.1)

    def test_negative_threshold_clamped(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE_SLOW_MS", "-5")
        assert sanitize.slow_callback_threshold_s() == 0.0


class TestSlowCallbackDetector:
    def test_detects_callback_exceeding_threshold(self):
        clock = ManualClock()
        detector = SlowCallbackDetector(threshold_s=0.05, clock=clock)

        def hog():
            clock.advance(0.1)

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.call_soon(hog)
            await asyncio.sleep(0)
            await asyncio.sleep(0)

        with detector:
            asyncio.run(scenario())
        assert len(detector.records) == 1
        record = detector.records[0]
        assert record.duration_s == pytest.approx(0.1)
        assert "hog" in record.callback

    def test_fast_callbacks_not_recorded(self):
        clock = ManualClock()
        detector = SlowCallbackDetector(threshold_s=0.05, clock=clock)

        async def scenario():
            await asyncio.sleep(0)

        with detector:
            asyncio.run(scenario())
        assert detector.records == []

    def test_on_slow_hook_fires(self):
        clock = ManualClock()
        seen = []
        detector = SlowCallbackDetector(
            threshold_s=0.01, clock=clock, on_slow=seen.append
        )

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.call_soon(lambda: clock.advance(0.5))
            await asyncio.sleep(0)

        with detector:
            asyncio.run(scenario())
        assert len(seen) == 1
        assert seen[0].duration_s == pytest.approx(0.5)

    def test_install_is_reversible_and_idempotent(self):
        original = asyncio.events.Handle._run
        detector = SlowCallbackDetector()
        detector.install()
        assert asyncio.events.Handle._run is not original
        detector.install()  # no-op, does not stack
        detector.uninstall()
        assert asyncio.events.Handle._run is original
        detector.uninstall()  # no-op
        assert asyncio.events.Handle._run is original


class TestRngGuard:
    def test_guard_blocks_numpy_global_draws(self):
        with GlobalRngGuard():
            with pytest.raises(RngDisciplineError, match="numpy.random.rand"):
                np.random.rand(2)
            with pytest.raises(RngDisciplineError, match="numpy.random.seed"):
                np.random.seed(0)

    def test_guard_blocks_stdlib_module_draws(self):
        with GlobalRngGuard():
            with pytest.raises(RngDisciplineError, match="random.random"):
                random.random()

    def test_seeded_generators_unaffected(self):
        with GlobalRngGuard():
            assert 0.0 <= np.random.default_rng(7).random() < 1.0
            assert 0.0 <= random.Random(7).random() < 1.0

    def test_uninstall_restores_functions(self):
        guard = GlobalRngGuard()
        guard.install()
        guard.uninstall()
        assert isinstance(float(np.random.rand()), float)
        assert 0.0 <= random.random() < 1.0

    def test_rng_discipline_is_noop_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        with rng_discipline():
            assert isinstance(float(np.random.rand()), float)

    def test_guard_patches_the_rep001_sets(self, monkeypatch):
        """The guard reads REP001's name sets when it installs, and
        patches every function in them that the modules define."""
        from repro.lint.knowledge import NP_LEGACY_GLOBAL_FNS, STDLIB_RANDOM_FNS

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        want_np = {name for name in NP_LEGACY_GLOBAL_FNS if hasattr(np.random, name)}
        want_random = {name for name in STDLIB_RANDOM_FNS if hasattr(random, name)}
        with rng_discipline() as guard:
            assert guard._saved_np.keys() == want_np and len(want_np) > 20
            assert guard._saved_random.keys() == want_random and len(want_random) > 10
            for module, names in ((np.random, want_np), (random, want_random)):
                for name in names:
                    with pytest.raises(RngDisciplineError):
                        getattr(module, name)()

    def test_rng_discipline_guards_when_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with rng_discipline():
            with pytest.raises(RngDisciplineError):
                np.random.rand()
        # Context exit restored the functions.
        assert isinstance(float(np.random.rand()), float)


class TestVectorErrstate:
    def test_traps_overflow_when_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with pytest.raises(FloatingPointError):
            with vector_errstate():
                np.array([1e308]) * 10.0

    def test_traps_invalid_when_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with pytest.raises(FloatingPointError):
            with vector_errstate():
                np.array([np.inf]) - np.array([np.inf])

    def test_noop_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        with vector_errstate(), np.errstate(invalid="ignore"):
            out = np.array([np.inf]) - np.array([np.inf])
        assert np.isnan(out[0])

    def test_vector_kernel_runs_under_sanitizer(self, monkeypatch):
        # The wired entry point must stay clean on well-formed input.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        from repro.core.greedy import RegionStats
        from repro.core.greedy_vector import greedy_increment_vector
        from repro.core.reduction import AnalyticReduction
        from repro.geo import Rect

        pw = AnalyticReduction(5.0, 100.0).piecewise(8)
        regions = [
            RegionStats(rect=Rect(0.0, 0.0, 10.0, 10.0), n=5.0, m=2.0, s=1.0),
            RegionStats(rect=Rect(10.0, 0.0, 20.0, 10.0), n=3.0, m=1.0, s=2.0),
        ]
        result = greedy_increment_vector(regions, pw, 0.5, None, True)
        assert np.all(np.isfinite(result.thresholds))
