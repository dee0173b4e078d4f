"""Unit tests for the statistics grid."""

import numpy as np
import pytest

from repro.core import StatisticsGrid
from repro.geo import Point, Rect
from repro.queries import RangeQuery

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)


class TestNodeStatistics:
    def test_counts_sum_to_population(self, rng):
        positions = rng.uniform(0, 100, size=(250, 2))
        grid = StatisticsGrid.from_snapshot(BOUNDS, 8, positions)
        assert grid.total_nodes == pytest.approx(250.0)

    def test_node_lands_in_correct_cell(self):
        grid = StatisticsGrid.from_snapshot(
            BOUNDS, 4, np.array([[10.0, 10.0], [90.0, 90.0]])
        )
        assert grid.n[0, 0] == 1
        assert grid.n[3, 3] == 1

    def test_out_of_bounds_nodes_clamp(self):
        grid = StatisticsGrid.from_snapshot(BOUNDS, 4, np.array([[-5.0, 500.0]]))
        assert grid.n[0, 3] == 1

    def test_mean_speed_per_cell(self):
        positions = np.array([[10.0, 10.0], [12.0, 12.0], [90.0, 90.0]])
        speeds = np.array([10.0, 20.0, 6.0])
        grid = StatisticsGrid.from_snapshot(BOUNDS, 4, positions, speeds)
        assert grid.s[0, 0] == pytest.approx(15.0)
        assert grid.s[3, 3] == pytest.approx(6.0)

    def test_global_mean_speed_is_node_weighted(self):
        positions = np.array([[10.0, 10.0], [12.0, 12.0], [90.0, 90.0]])
        speeds = np.array([10.0, 20.0, 6.0])
        grid = StatisticsGrid.from_snapshot(BOUNDS, 4, positions, speeds)
        assert grid.mean_speed == pytest.approx((10 + 20 + 6) / 3)

    def test_empty_cells_have_zero_speed(self):
        grid = StatisticsGrid.from_snapshot(BOUNDS, 4, np.array([[10.0, 10.0]]))
        assert grid.s[2, 2] == 0.0

    def test_speeds_shape_validated(self):
        with pytest.raises(ValueError):
            StatisticsGrid.from_snapshot(
                BOUNDS, 4, np.zeros((3, 2)), np.zeros(2)
            )


class TestQueryStatistics:
    def test_fully_contained_query_counts_once(self):
        grid = StatisticsGrid(BOUNDS, 1)
        grid.set_query_statistics([RangeQuery(0, Rect(10, 10, 20, 20))])
        assert grid.total_queries == pytest.approx(1.0)

    def test_fractional_counting_across_cells(self):
        grid = StatisticsGrid(BOUNDS, 2)
        # A query straddling the vertical midline, 50/50.
        grid.set_query_statistics([RangeQuery(0, Rect(40, 10, 60, 30))])
        assert grid.m[0, 0] == pytest.approx(0.5)
        assert grid.m[1, 0] == pytest.approx(0.5)
        assert grid.total_queries == pytest.approx(1.0)

    def test_query_across_four_cells(self):
        grid = StatisticsGrid(BOUNDS, 2)
        grid.set_query_statistics([RangeQuery(0, Rect(40, 40, 60, 60))])
        for i in range(2):
            for j in range(2):
                assert grid.m[i, j] == pytest.approx(0.25)

    def test_query_partially_outside_bounds_counts_partially(self):
        grid = StatisticsGrid(BOUNDS, 1)
        # Half of this query is outside the monitoring space.
        grid.set_query_statistics([RangeQuery(0, Rect(-10, 0, 10, 10))])
        assert grid.total_queries == pytest.approx(0.5)

    def test_total_preserved_for_many_random_queries(self, rng):
        grid = StatisticsGrid(BOUNDS, 8)
        queries = []
        for k in range(30):
            cx, cy = rng.uniform(10, 90, 2)
            side = rng.uniform(4, 20)
            queries.append(RangeQuery(k, Rect.from_center(Point(cx, cy), side)))
        grid.set_query_statistics(queries)
        assert grid.total_queries == pytest.approx(30.0, abs=1e-6)


class TestQueryLayerMemo:
    """``from_snapshot`` rasterizes a standing query set once, by value."""

    def _queries(self, rng, count=12):
        return [
            RangeQuery(
                k, Rect.from_center(Point(*rng.uniform(5, 95, 2)), rng.uniform(4, 30))
            )
            for k in range(count)
        ]

    def _counting(self, monkeypatch):
        calls = []
        # The memo is per process: start from a known-empty one.
        monkeypatch.setattr(StatisticsGrid, "_query_layer", None)
        rasterize = StatisticsGrid.set_query_statistics
        monkeypatch.setattr(
            StatisticsGrid,
            "set_query_statistics",
            lambda grid, queries: calls.append(len(queries)) or rasterize(grid, queries),
        )
        return calls

    def test_same_rectangles_hit_and_match_bit_for_bit(self, rng, monkeypatch):
        queries = self._queries(rng)
        positions = rng.uniform(0, 100, size=(50, 2))
        reference = StatisticsGrid(BOUNDS, 16)
        reference.set_query_statistics(queries)
        calls = self._counting(monkeypatch)
        first = StatisticsGrid.from_snapshot(BOUNDS, 16, positions, queries=queries)
        # Equal by value, not identity: fresh query objects, fresh list.
        again = [
            RangeQuery(q.query_id + 100, Rect(q.rect.x1, q.rect.y1, q.rect.x2, q.rect.y2))
            for q in queries
        ]
        second = StatisticsGrid.from_snapshot(BOUNDS, 16, positions * 0.5, queries=again)
        assert calls == [len(queries)]
        np.testing.assert_array_equal(first.m, reference.m)
        np.testing.assert_array_equal(second.m, reference.m)

    def test_returned_layers_are_never_aliased(self, rng):
        queries = self._queries(rng)
        positions = rng.uniform(0, 100, size=(20, 2))
        first = StatisticsGrid.from_snapshot(BOUNDS, 8, positions, queries=queries)
        expected = first.m.copy()
        first.m[:] = -1.0  # a caller scribbling on its grid...
        second = StatisticsGrid.from_snapshot(BOUNDS, 8, positions, queries=queries)
        np.testing.assert_array_equal(second.m, expected)  # ...reaches neither the memo
        second.m[:] = -2.0
        third = StatisticsGrid.from_snapshot(BOUNDS, 8, positions, queries=queries)
        np.testing.assert_array_equal(third.m, expected)  # ...nor the next grid
        assert not np.shares_memory(second.m, third.m)

    def test_any_input_change_recomputes(self, rng, monkeypatch):
        queries = self._queries(rng)
        positions = rng.uniform(0, 100, size=(20, 2))
        moved = list(queries)
        rect = moved[3].rect
        moved[3] = RangeQuery(3, Rect(rect.x1 + 1.0, rect.y1, rect.x2 + 1.0, rect.y2))
        wider = Rect(0.0, 0.0, 120.0, 100.0)
        variants = [
            (BOUNDS, 8, queries),
            (BOUNDS, 8, moved),  # one rectangle moved
            (BOUNDS, 8, queries[::-1]),  # reordered: another summation order
            (BOUNDS, 16, queries),  # another α
            (wider, 16, queries),  # other bounds
            (BOUNDS, 8, queries[:-1]),  # one query dropped
        ]
        calls = self._counting(monkeypatch)
        for bounds, alpha, qs in variants:
            grid = StatisticsGrid.from_snapshot(bounds, alpha, positions, queries=qs)
            reference = StatisticsGrid(bounds, alpha)
            reference.set_query_statistics(qs)
            np.testing.assert_array_equal(grid.m, reference.m)
        assert len(calls) == 2 * len(variants)  # one miss + one reference each

    def test_no_queries_leave_the_layer_empty(self, rng):
        queries = self._queries(rng)
        positions = rng.uniform(0, 100, size=(20, 2))
        StatisticsGrid.from_snapshot(BOUNDS, 8, positions, queries=queries)
        bare = StatisticsGrid.from_snapshot(BOUNDS, 8, positions)
        assert not bare.m.any()


class TestIncrementalMaintenance:
    def test_ingest_and_roll(self):
        grid = StatisticsGrid(BOUNDS, 4)
        grid.ingest_updates([10.0, 12.0], [10.0, 12.0], [4.0, 8.0])
        grid.roll()
        assert grid.n[0, 0] == pytest.approx(2.0)
        assert grid.s[0, 0] == pytest.approx(6.0)

    def test_roll_normalizes_by_updates_per_node(self):
        grid = StatisticsGrid(BOUNDS, 4)
        grid.ingest_updates(np.full(10, 10.0), np.full(10, 10.0), np.full(10, 5.0))
        grid.roll(expected_updates_per_node=5.0)
        assert grid.n[0, 0] == pytest.approx(2.0)

    def test_roll_clears_accumulators(self):
        grid = StatisticsGrid(BOUNDS, 4)
        grid.ingest_updates([10.0], [10.0], [0.0])
        grid.roll()
        grid.roll()
        assert grid.total_nodes == 0.0

    def test_roll_rejects_bad_normalization(self):
        with pytest.raises(ValueError):
            StatisticsGrid(BOUNDS, 4).roll(expected_updates_per_node=0.0)


class TestGeometry:
    def test_cell_indices_vectorized_matches_scalar(self, rng):
        grid = StatisticsGrid(BOUNDS, 8)
        positions = rng.uniform(-10, 110, size=(50, 2))
        ix, iy = grid.cell_indices(positions)
        for k in range(50):
            i = int((positions[k, 0] - BOUNDS.x1) / grid._cell_w)
            j = int((positions[k, 1] - BOUNDS.y1) / grid._cell_h)
            assert (ix[k], iy[k]) == (min(max(i, 0), 7), min(max(j, 0), 7))

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            StatisticsGrid(BOUNDS, 0)
