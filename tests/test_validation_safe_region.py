"""Tests for the safe-region baseline policy (a plan of α × α cells)."""

import numpy as np
import pytest

from repro.core import LiraConfig, StatisticsGrid
from repro.core.gridreduce import uniform_partitioning
from repro.geo import Rect
from repro.queries import RangeQuery
from repro.shedding.safe_region import SafeRegionPolicy

BOUNDS = Rect(0.0, 0.0, 1000.0, 1000.0)
#: 16 × 16 cells of 62.5 m over BOUNDS.
CONFIG = LiraConfig(l=16, alpha=16)


def _position_rule(positions, queries, delta_min, slack):
    """The per-node safe-region rule: ``slack`` × the distance to the
    nearest query, at least Δ⊢, and Δ⊢ inside a query."""
    x, y = positions[:, 0], positions[:, 1]
    nearest = np.full(len(positions), np.inf)
    inside = np.zeros(len(positions), dtype=bool)
    for query in queries:
        r = query.rect
        dx = np.maximum(np.maximum(r.x1 - x, x - r.x2), 0.0)
        dy = np.maximum(np.maximum(r.y1 - y, y - r.y2), 0.0)
        nearest = np.minimum(nearest, np.hypot(dx, dy))
        inside |= (x >= r.x1) & (x < r.x2) & (y >= r.y1) & (y < r.y2)
    return np.where(inside, delta_min, np.maximum(slack * nearest, delta_min))


class TestSafeRegionPolicy:
    QUERIES = [
        RangeQuery(0, Rect(100.0, 100.0, 300.0, 300.0)),
        RangeQuery(1, Rect(700.0, 700.0, 900.0, 900.0)),
    ]

    def _adapted(self, config=CONFIG, **options):
        policy = SafeRegionPolicy(self.QUERIES, config, **options)
        policy.adapt(StatisticsGrid(BOUNDS, config.resolved_alpha), z=0.5)
        return policy

    def test_inside_query_gets_delta_min(self):
        thresholds = self._adapted().thresholds_for(np.array([[200.0, 200.0]]))
        assert thresholds[0] == 5.0

    def test_far_nodes_get_large_thresholds(self):
        policy = self._adapted(slack=0.5)
        # (500, 500) lies in the cell [500, 562.5]²; its nearest query
        # corner (700, 700) is 137.5 m away along each axis.
        thresholds = policy.thresholds_for(np.array([[500.0, 500.0]]))
        assert thresholds[0] == pytest.approx(0.5 * np.hypot(137.5, 137.5), rel=1e-12)
        assert thresholds[0] > 10 * CONFIG.delta_min

    def test_threshold_grows_with_distance(self):
        policy = self._adapted()
        near = policy.thresholds_for(np.array([[310.0, 200.0]]))[0]
        far = policy.thresholds_for(np.array([[550.0, 200.0]]))[0]
        assert far > near

    def test_cap_applies(self):
        thresholds = self._adapted(delta_cap=50.0).thresholds_for(np.array([[500.0, 500.0]]))
        assert thresholds[0] == 50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SafeRegionPolicy([], CONFIG)
        with pytest.raises(ValueError):
            SafeRegionPolicy(self.QUERIES, CONFIG, slack=0.0)
        with pytest.raises(ValueError):
            SafeRegionPolicy(self.QUERIES, LiraConfig(delta_min=10.0), delta_cap=5.0)

    def test_plan_is_the_alpha_grid_built_once(self):
        policy = self._adapted()
        plan = policy.plan
        assert plan.num_regions == CONFIG.resolved_alpha**2
        assert policy.adapt(StatisticsGrid(BOUNDS, CONFIG.resolved_alpha), z=0.1) is plan

    @pytest.mark.parametrize("alpha", [8, 16, 64])
    def test_cells_are_the_one_cell_blocks_of_uniform_partitioning(self, alpha, rng):
        """Same rectangles and statistics, float for float, as the α² blocks
        of the paper's l-partitioning, empty cells (s = 0) included."""
        grid = StatisticsGrid(Rect(-137.3, 41.9, 862.1, 1003.7), alpha)
        shape = (alpha, alpha)
        grid.n = rng.integers(0, 3, shape) * rng.uniform(0.5, 40.0, shape)  # a rolled grid's n
        grid.m, grid.s = rng.uniform(0, 2, shape), rng.uniform(0, 30, shape)
        policy = SafeRegionPolicy(self.QUERIES, LiraConfig(l=16, alpha=alpha))
        blocks = uniform_partitioning(grid, alpha**2).regions
        cells = policy.adapt(grid, z=0.5).regions
        assert len(cells) == len(blocks) == alpha**2
        for cell, block in zip(cells, blocks, strict=True):
            assert (cell.rect, cell.n, cell.m, cell.s) == (block.rect, block.n, block.m, block.s)

    @pytest.mark.parametrize("alpha", [8, 16, 64])
    def test_cell_rule_never_exceeds_the_position_rule(self, alpha, rng):
        """A cell's distance is its nearest point's, so no node gets more
        slack than its own position allows: the safe-region guarantee."""
        config = LiraConfig(l=16, alpha=alpha)
        positions = rng.uniform(0, 1000, size=(2000, 2))
        cell = self._adapted(config).thresholds_for(positions)
        point = _position_rule(positions, self.QUERIES, config.delta_min, 0.5)
        assert np.all(cell <= point)
        assert np.mean(cell == point) < 1  # the cells do cost some slack

    def test_safety_invariant_under_movement(self, rng):
        """A node moving less than its threshold cannot have entered or
        left any query: the defining property of safe regions."""
        policy = self._adapted(LiraConfig(l=16, alpha=16, delta_min=1.0, delta_max=100.0))
        positions = rng.uniform(0, 1000, size=(300, 2))
        thresholds = policy.thresholds_for(positions)
        # Random displacement strictly shorter than the threshold.
        angles = rng.uniform(0, 2 * np.pi, 300)
        steps = thresholds * 0.99
        moved = positions + np.column_stack(
            [steps * np.cos(angles), steps * np.sin(angles)]
        )

        def memberships(pts):
            return [
                set(q.evaluate(pts).tolist()) for q in self.QUERIES
            ]

        before, after = memberships(positions), memberships(moved)
        # Nodes outside all queries with threshold > delta_min must still
        # be outside after a sub-threshold move.
        for q_before, q_after in zip(before, after):
            entered = np.array(sorted(set(q_after) - set(q_before)))
            if entered.size:
                # Any entries must come from nodes at the minimum
                # threshold (inside-query accuracy class), never from
                # far nodes with relaxed thresholds.
                assert np.all(thresholds[entered] <= policy.delta_min + 1e-9)

    def test_cq_accurate_but_snapshot_poor(self, tiny_scenario):
        """The related-work trade-off: excellent CQ accuracy with few
        updates, but poor whole-population (snapshot) accuracy."""
        from repro.motion import DeadReckoningFleet
        from repro.index import NodeTable

        trace = tiny_scenario.trace
        config = LiraConfig(l=16, alpha=32)
        policy = SafeRegionPolicy(tiny_scenario.queries, config)
        policy.adapt(StatisticsGrid(trace.bounds, config.resolved_alpha), z=1.0)
        fleet = DeadReckoningFleet(trace.num_nodes)
        table = NodeTable(trace.num_nodes)
        for tick in range(trace.num_ticks):
            t = tick * trace.dt
            positions = trace.positions[tick]
            fleet.set_thresholds(policy.thresholds_for(positions))
            senders = fleet.observe(t, positions, trace.velocities[tick])
            table.ingest(t, senders, positions[senders], trace.velocities[tick][senders])
        t_final = (trace.num_ticks - 1) * trace.dt
        believed = table.predict(t_final)
        true = trace.positions[-1]
        errors = np.linalg.norm(believed - true, axis=1)
        thresholds = policy.thresholds_for(true)
        relaxed = thresholds > 2 * tiny_scenario.delta_min
        assert relaxed.any() and (~relaxed).any()
        # Whole-population error is much worse for far (relaxed) nodes.
        assert errors[relaxed].mean() > errors[~relaxed].mean()
