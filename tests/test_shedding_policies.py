"""Unit tests for the four shedding policies.

LIRA's policy is its shedder, :class:`~repro.core.LiraLoadShedder`.
"""

import numpy as np
import pytest

from repro.core import LiraConfig, LiraLoadShedder
from repro.shedding import (
    POLICIES,
    LiraGridPolicy,
    RandomDropPolicy,
    UniformDeltaPolicy,
)


@pytest.fixture()
def config() -> LiraConfig:
    return LiraConfig(l=16, alpha=16, z=0.5)


class TestLiraPolicy:
    def test_requires_adapt_before_lookup(self, config, reduction):
        policy = LiraLoadShedder(config, reduction)
        with pytest.raises(RuntimeError):
            policy.thresholds_for(np.zeros((1, 2)))

    def test_adapt_then_lookup(self, config, reduction, small_grid):
        policy = LiraLoadShedder(config, reduction)
        policy.adapt(small_grid, z=0.5)
        thresholds = policy.thresholds_for(np.array([[100.0, 100.0]]))
        assert 5.0 <= thresholds[0] <= 100.0

    def test_admits_everything(self, config, reduction):
        assert LiraLoadShedder(config, reduction).admission_fraction() == 1.0

    def test_alpha_exposed(self, config, reduction):
        assert LiraLoadShedder(config, reduction).alpha == 16

    def test_z_changes_plan(self, config, reduction, small_grid):
        policy = LiraLoadShedder(config, reduction)
        policy.adapt(small_grid, z=0.9)
        high = policy.plan.thresholds.mean()
        policy.adapt(small_grid, z=0.3)
        low = policy.plan.thresholds.mean()
        assert low > high

    def test_describe(self, config, reduction):
        assert "LIRA" in LiraLoadShedder(config, reduction).describe()


class TestLiraGridPolicy:
    def test_uniform_region_sizes(self, config, reduction, small_grid):
        policy = LiraGridPolicy(config, reduction)
        policy.adapt(small_grid, z=0.5)
        areas = {round(r.rect.area, 6) for r in policy.plan.regions}
        assert len(areas) == 1  # all regions equal-sized

    def test_region_count_is_floor_sqrt_squared(self, reduction, small_grid):
        policy = LiraGridPolicy(LiraConfig(l=10, alpha=16), reduction)
        policy.adapt(small_grid, z=0.5)
        assert policy.plan.num_regions == 9  # floor(sqrt(10))^2

    def test_still_optimizes_throttlers(self, config, reduction, small_grid):
        """Unlike Uniform-Delta, Lira-Grid assigns differing throttlers."""
        policy = LiraGridPolicy(config, reduction)
        policy.adapt(small_grid, z=0.4)
        assert len(set(policy.plan.thresholds.round(6))) > 1

    def test_requires_adapt(self, config, reduction):
        with pytest.raises(RuntimeError):
            LiraGridPolicy(config, reduction).thresholds_for(np.zeros((1, 2)))


class TestUniformDeltaPolicy:
    def test_single_threshold_everywhere(self, reduction, small_grid, rng):
        policy = UniformDeltaPolicy(reduction)
        policy.adapt(small_grid, z=0.5)
        thresholds = policy.thresholds_for(rng.uniform(0, 4000, (50, 2)))
        assert len(set(thresholds)) == 1

    def test_threshold_meets_budget(self, reduction, small_grid):
        policy = UniformDeltaPolicy(reduction)
        policy.adapt(small_grid, z=0.5)
        assert reduction.f(policy.delta) <= 0.5 + 1e-9

    def test_requires_adapt(self, reduction):
        with pytest.raises(RuntimeError):
            UniformDeltaPolicy(reduction).thresholds_for(np.zeros((1, 2)))

    def test_describe_mentions_delta(self, reduction, small_grid):
        policy = UniformDeltaPolicy(reduction)
        policy.adapt(small_grid, z=0.5)
        assert "delta=" in policy.describe()


class TestRandomDropPolicy:
    def test_thresholds_always_delta_min(self, small_grid, rng):
        policy = RandomDropPolicy(delta_min=5.0)
        policy.adapt(small_grid, z=0.3)
        thresholds = policy.thresholds_for(rng.uniform(0, 4000, (20, 2)))
        np.testing.assert_allclose(thresholds, 5.0)

    def test_admission_fraction_is_z(self, small_grid):
        policy = RandomDropPolicy()
        policy.adapt(small_grid, z=0.3)
        assert policy.admission_fraction() == 0.3

    def test_validation(self, small_grid):
        with pytest.raises(ValueError):
            RandomDropPolicy(delta_min=-1.0)
        policy = RandomDropPolicy()
        with pytest.raises(ValueError):
            policy.adapt(small_grid, z=1.5)


class TestPlanSource:
    """Every policy serves its plan from ``adapt`` and looks Δ up in it."""

    @pytest.mark.parametrize("name", list(POLICIES))
    def test_adapt_returns_the_plan_it_serves(self, name, config, reduction, small_grid, rng):
        shedder = LiraLoadShedder(config, reduction)
        policy = POLICIES[name](shedder, reduction)
        assert (policy is shedder) == (name == "lira")
        plan = policy.adapt(small_grid, 0.5)
        assert policy.plan is plan
        positions = rng.uniform(0, 4000, (50, 2))
        np.testing.assert_array_equal(
            policy.thresholds_for(positions), plan.thresholds_for(positions)
        )

    def test_one_region_plans_are_shared(self, reduction, small_grid):
        """Uniform Δ and Random Drop serve one region over the bounds;
        an unchanged Δ serves the same object, so nothing is re-pushed."""
        drop, uniform = RandomDropPolicy(delta_min=5.0), UniformDeltaPolicy(reduction)
        plan = drop.adapt(small_grid, 0.3)
        assert plan.num_regions == 1 and plan.regions[0].rect == small_grid.bounds
        assert drop.adapt(small_grid, 0.6) is plan
        assert uniform.adapt(small_grid, 1.0) is plan  # f⁻¹(1) = Δ⊢
        assert uniform.adapt(small_grid, 0.5).regions[0].delta == uniform.delta
