"""Unit tests for shedding plans (rasterized region/threshold lookup)."""

import numpy as np
import pytest

from repro.core import RegionHierarchy, SheddingPlan, StatisticsGrid, grid_reduce
from repro.core.greedy import RegionStats
from repro.geo import Rect

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)


def quadrant_regions() -> list[RegionStats]:
    return [
        RegionStats(rect=r, n=10.0, m=1.0, s=5.0)
        for r in Rect(0.0, 0.0, 100.0, 100.0).quadrants()
    ]


class TestConstruction:
    def test_from_regions(self):
        plan = SheddingPlan.from_regions(
            BOUNDS, quadrant_regions(), np.array([5.0, 10.0, 20.0, 40.0]), 4
        )
        assert plan.num_regions == 4

    def test_threshold_count_must_match(self):
        with pytest.raises(ValueError):
            SheddingPlan.from_regions(BOUNDS, quadrant_regions(), np.array([5.0]), 4)

    def test_misaligned_regions_rejected(self):
        regions = [
            RegionStats(rect=Rect(0, 0, 33.0, 100.0), n=1, m=1, s=1),
            RegionStats(rect=Rect(33.0, 0, 100.0, 100.0), n=1, m=1, s=1),
        ]
        with pytest.raises(ValueError, match="not aligned"):
            SheddingPlan.from_regions(BOUNDS, regions, np.array([5.0, 10.0]), 4)

    def test_incomplete_tiling_rejected(self):
        regions = quadrant_regions()[:3]
        with pytest.raises(ValueError, match="tile"):
            SheddingPlan.from_regions(BOUNDS, regions, np.array([5.0, 6.0, 7.0]), 4)


class TestLookup:
    def _plan(self) -> SheddingPlan:
        return SheddingPlan.from_regions(
            BOUNDS, quadrant_regions(), np.array([5.0, 10.0, 20.0, 40.0]), 4
        )

    def test_threshold_at_each_quadrant(self):
        plan = self._plan()
        # Quadrant order from Rect.quadrants(): SW, SE, NW, NE.
        centers = np.array([[25.0, 25.0], [75.0, 25.0], [25.0, 75.0], [75.0, 75.0]])
        assert plan.thresholds_for(centers).tolist() == [5.0, 10.0, 20.0, 40.0]

    def test_vectorized_matches_scalar(self, rng):
        plan = self._plan()
        positions = rng.uniform(0, 100, size=(100, 2))
        vectorized = plan.thresholds_for(positions)
        for k in range(100):
            assert vectorized[k] == plan.region_at(*positions[k]).delta

    def test_lookup_matches_rect_containment(self, rng):
        plan = self._plan()
        positions = rng.uniform(0, 100, size=(200, 2))
        ids = plan.region_ids_for(positions)
        for k in range(200):
            region = plan.regions[ids[k]]
            assert region.rect.contains_xy(positions[k, 0], positions[k, 1])

    def test_out_of_bounds_clamps(self):
        plan = self._plan()
        outside = np.array([[-50.0, -50.0], [500.0, 500.0]])
        assert plan.thresholds_for(outside).tolist() == [5.0, 40.0]

    def test_region_at(self):
        plan = self._plan()
        region = plan.region_at(75.0, 75.0)
        assert region.delta == 40.0

    def test_spread_and_inaccuracy(self):
        plan = self._plan()
        assert plan.max_threshold_spread() == 35.0
        assert plan.predicted_inaccuracy() == pytest.approx(5 + 10 + 20 + 40)

    def test_thresholds_copy_is_isolated(self):
        plan = self._plan()
        values = plan.thresholds
        values[0] = 999.0
        assert plan.region_at(25.0, 25.0).delta == 5.0
        assert plan.thresholds_for(np.array([[25.0, 25.0]]))[0] == 5.0


class TestQuadtreePlanRoundtrip:
    def test_gridreduce_regions_rasterize_exactly(self, reduction, rng):
        """A real GRIDREDUCE partitioning must rasterize without error and
        every node must get the threshold of its true containing region."""
        positions = rng.uniform(0, 100, size=(150, 2))
        grid = StatisticsGrid.from_snapshot(BOUNDS, 16, positions)
        grid.m += rng.uniform(0, 0.2, size=grid.m.shape)  # synthetic queries
        hierarchy = RegionHierarchy(grid)
        partitioning = grid_reduce(hierarchy, 13, 0.5, reduction.piecewise(10))
        thresholds = np.linspace(5.0, 100.0, partitioning.num_regions)
        plan = SheddingPlan.from_regions(
            BOUNDS, partitioning.regions, thresholds, 16
        )
        probe = rng.uniform(0, 100, size=(300, 2))
        ids = plan.region_ids_for(probe)
        for k in range(300):
            assert plan.regions[ids[k]].rect.contains_xy(probe[k, 0], probe[k, 1])


class TestPlanPersistence:
    def _plan(self) -> SheddingPlan:
        return SheddingPlan.from_regions(
            BOUNDS, quadrant_regions(), np.array([5.0, 10.0, 20.0, 40.0]), 4
        )

    def test_roundtrip_preserves_lookup(self, tmp_path, rng):
        plan = self._plan()
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = SheddingPlan.load(path)
        assert loaded.num_regions == plan.num_regions
        probes = rng.uniform(0, 100, size=(100, 2))
        np.testing.assert_array_equal(
            loaded.thresholds_for(probes), plan.thresholds_for(probes)
        )
        assert loaded.predicted_inaccuracy() == plan.predicted_inaccuracy()

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError, match="not a repro"):
            SheddingPlan.from_dict({"format": "something"})

    def test_rejects_future_version(self):
        doc = self._plan().to_dict()
        doc["version"] = 9
        with pytest.raises(ValueError, match="version"):
            SheddingPlan.from_dict(doc)

    def test_lira_plan_roundtrip(self, small_grid, reduction, tmp_path, rng):
        from repro.core import LiraConfig, LiraLoadShedder

        shedder = LiraLoadShedder(LiraConfig(l=16, alpha=16, z=0.5), reduction)
        plan = shedder.adapt(small_grid)
        path = tmp_path / "lira_plan.json"
        plan.save(path)
        loaded = SheddingPlan.load(path)
        b = small_grid.bounds
        probes = np.column_stack(
            [rng.uniform(b.x1, b.x2, 200), rng.uniform(b.y1, b.y2, 200)]
        )
        np.testing.assert_array_equal(
            loaded.thresholds_for(probes), plan.thresholds_for(probes)
        )
