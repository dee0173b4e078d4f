"""Unit tests for LiraConfig, the alpha rule, and the LiraLoadShedder."""

import numpy as np
import pytest

from repro.core import (
    AnalyticReduction,
    LiraConfig,
    LiraLoadShedder,
    StatisticsGrid,
    auto_alpha,
)


class TestAutoAlpha:
    def test_paper_example(self):
        # Paper Section 4.3.2: l = 4000 with x = 10 gives alpha = 512.
        assert auto_alpha(4000) == 512

    def test_default_l(self):
        # l = 250, x = 10: 10 * sqrt(250) ~ 158 -> 2^7 = 128.
        assert auto_alpha(250) == 128

    def test_always_power_of_two(self):
        for l in (1, 7, 100, 999):
            alpha = auto_alpha(l)
            assert alpha & (alpha - 1) == 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            auto_alpha(0)
        with pytest.raises(ValueError):
            auto_alpha(10, x=0.0)


class TestLiraConfig:
    def test_defaults_match_paper_table2(self):
        config = LiraConfig()
        assert config.l == 250
        assert config.alpha == 128
        assert config.z == 0.5
        assert config.delta_min == 5.0
        assert config.delta_max == 100.0
        assert config.increment == 1.0
        assert config.fairness == 50.0

    def test_n_segments(self):
        assert LiraConfig().n_segments == 95
        assert LiraConfig(increment=5.0).n_segments == 19

    def test_auto_alpha_applied_when_none(self):
        config = LiraConfig(l=250, alpha=None)
        assert config.resolved_alpha == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            LiraConfig(l=0)
        with pytest.raises(ValueError):
            LiraConfig(z=1.5)
        with pytest.raises(ValueError):
            LiraConfig(delta_min=100.0, delta_max=5.0)
        with pytest.raises(ValueError):
            LiraConfig(increment=0.0)
        with pytest.raises(ValueError):
            LiraConfig(fairness=-1.0)
        with pytest.raises(ValueError):
            LiraConfig(alpha=100)  # not a power of two

    def test_fairness_none_allowed(self):
        assert LiraConfig(fairness=None).fairness is None


class TestLiraLoadShedder:
    def _shedder(self, **overrides) -> LiraLoadShedder:
        config = LiraConfig(l=16, alpha=16, **overrides)
        return LiraLoadShedder(config, AnalyticReduction(5.0, 100.0))

    def test_adapt_produces_plan(self, small_grid):
        shedder = self._shedder()
        plan = shedder.adapt(small_grid)
        assert plan.num_regions == 16
        report = shedder.last_report
        assert report is not None
        assert report.budget_met
        assert report.elapsed_seconds > 0

    def test_plan_respects_fairness(self, small_grid):
        shedder = self._shedder(fairness=30.0)
        plan = shedder.adapt(small_grid)
        assert plan.max_threshold_spread() <= 30.0 + 1e-9

    def test_alpha_mismatch_rejected(self, small_trace):
        shedder = self._shedder()
        wrong = StatisticsGrid.from_snapshot(
            small_trace.bounds, 8, small_trace.snapshot(0)
        )
        with pytest.raises(ValueError, match="cells/side"):
            shedder.adapt(wrong)

    def test_reduction_domain_mismatch_rejected(self):
        config = LiraConfig(l=16, alpha=16, delta_min=5.0, delta_max=100.0)
        with pytest.raises(ValueError, match="domain"):
            LiraLoadShedder(config, AnalyticReduction(1.0, 50.0))

    def test_fixed_vs_adaptive_throttle(self, small_grid):
        shedder = self._shedder(z=0.7)
        assert shedder.current_z == 0.7
        shedder.use_adaptive_throttle()
        assert shedder.current_z == 1.0  # THROTLOOP initial
        shedder.observe_load(arrival_rate=200.0, service_rate=100.0)
        assert shedder.current_z < 1.0
        shedder.set_throttle_fraction(0.4)
        assert shedder.current_z == 0.4
        with pytest.raises(ValueError):
            shedder.set_throttle_fraction(2.0)

    def test_lower_z_raises_thresholds(self, small_grid):
        high = self._shedder(z=0.9).adapt(small_grid)
        low = self._shedder(z=0.3).adapt(small_grid)
        assert low.thresholds.mean() > high.thresholds.mean()

    def test_z_one_keeps_all_at_delta_min(self, small_grid):
        plan = self._shedder(z=1.0).adapt(small_grid)
        np.testing.assert_allclose(plan.thresholds, 5.0)

    def test_adapt_is_deterministic(self, small_grid):
        a = self._shedder().adapt(small_grid)
        b = self._shedder().adapt(small_grid)
        np.testing.assert_allclose(a.thresholds, b.thresholds)


class TestLogging:
    def test_adaptation_logged_at_debug(self, small_grid, caplog):
        import logging

        shedder = LiraLoadShedder(
            LiraConfig(l=16, alpha=16, z=0.5), AnalyticReduction(5.0, 100.0)
        )
        with caplog.at_level(logging.DEBUG, logger="repro.core.shedder"):
            shedder.adapt(small_grid)
        assert any("adaptation" in r.message for r in caplog.records)

    def test_unreachable_budget_warns(self, small_grid, caplog):
        import logging

        shedder = LiraLoadShedder(
            LiraConfig(l=16, alpha=16, z=0.01), AnalyticReduction(5.0, 100.0)
        )
        with caplog.at_level(logging.WARNING, logger="repro.core.shedder"):
            shedder.adapt(small_grid)
        assert any("unreachable" in r.message for r in caplog.records)

    @staticmethod
    def _warnings_per_round(small_grid, caplog, zs):
        """Unreachable-budget warnings logged by each round at ``zs``."""
        import logging

        shedder = LiraLoadShedder(
            LiraConfig(l=16, alpha=16), AnalyticReduction(5.0, 100.0)
        )
        counts = []
        with caplog.at_level(logging.WARNING, logger="repro.core.shedder"):
            for z in zs:
                caplog.clear()
                shedder.adapt(small_grid, z)
                counts.append(sum("unreachable" in r.message for r in caplog.records))
        return counts, shedder

    def test_second_unmet_round_in_a_row_does_not_warn(self, small_grid, caplog):
        counts, shedder = self._warnings_per_round(small_grid, caplog, (0.01, 0.01))
        assert counts == [1, 0]
        assert shedder.last_report.budget_met is False

    def test_unmet_round_after_a_met_one_warns(self, small_grid, caplog):
        counts, shedder = self._warnings_per_round(small_grid, caplog, (0.01, 0.9, 0.01))
        assert counts == [1, 0, 1]
        assert shedder.last_report.budget_met is False

    def test_throttle_tightening_logged(self, caplog):
        import logging

        from repro.core import ThrotLoop

        loop = ThrotLoop(queue_capacity=50)
        with caplog.at_level(logging.DEBUG, logger="repro.core.throtloop"):
            loop.step(arrival_rate=500.0, service_rate=100.0)
        assert any("tightened" in r.message for r in caplog.records)
