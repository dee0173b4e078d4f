"""Unit tests for range queries and workload generation."""

import numpy as np
import pytest

from repro.geo import Rect
from repro.queries import (
    QueryDistribution,
    RangeQuery,
    evaluate_queries,
    generate_workload,
)


class TestRangeQuery:
    def test_evaluate_returns_inside_indices(self):
        q = RangeQuery(0, Rect(0.0, 0.0, 10.0, 10.0))
        positions = np.array([[5.0, 5.0], [15.0, 5.0], [9.9, 9.9], [-1.0, 5.0]])
        assert sorted(q.evaluate(positions)) == [0, 2]

    def test_half_open_edges(self):
        q = RangeQuery(0, Rect(0.0, 0.0, 10.0, 10.0))
        positions = np.array([[0.0, 0.0], [10.0, 10.0], [10.0, 0.0], [0.0, 10.0]])
        assert sorted(q.evaluate(positions)) == [0]

    def test_empty_positions(self):
        q = RangeQuery(0, Rect(0.0, 0.0, 1.0, 1.0))
        assert q.evaluate(np.empty((0, 2))).size == 0

    def test_evaluate_queries_batch(self):
        queries = [
            RangeQuery(0, Rect(0, 0, 5, 5)),
            RangeQuery(1, Rect(5, 5, 10, 10)),
        ]
        positions = np.array([[1.0, 1.0], [6.0, 6.0], [20.0, 20.0]])
        results = evaluate_queries(queries, positions)
        assert sorted(results[0]) == [0]
        assert sorted(results[1]) == [1]


class TestWorkloadGeneration:
    BOUNDS = Rect(0.0, 0.0, 10_000.0, 10_000.0)

    def _nodes(self, rng) -> np.ndarray:
        # Cluster in the lower-left quadrant to make density detectable.
        return rng.uniform(0, 3000, size=(500, 2))

    def test_count_and_ids(self, rng):
        queries = generate_workload(
            self.BOUNDS, 25, 1000.0, QueryDistribution.RANDOM, seed=1
        )
        assert len(queries) == 25
        assert [q.query_id for q in queries] == list(range(25))

    def test_side_lengths_in_range(self, rng):
        w = 1000.0
        queries = generate_workload(
            self.BOUNDS, 50, w, QueryDistribution.RANDOM, seed=2
        )
        for q in queries:
            assert w / 2 - 1e-9 <= q.rect.width <= w + 1e-9
            assert q.rect.width == pytest.approx(q.rect.height)

    def test_deterministic_given_seed(self):
        a = generate_workload(self.BOUNDS, 10, 500.0, QueryDistribution.RANDOM, seed=3)
        b = generate_workload(self.BOUNDS, 10, 500.0, QueryDistribution.RANDOM, seed=3)
        assert [q.rect for q in a] == [q.rect for q in b]

    def test_proportional_follows_node_density(self, rng):
        nodes = self._nodes(rng)
        queries = generate_workload(
            self.BOUNDS, 100, 500.0, QueryDistribution.PROPORTIONAL, nodes, seed=4
        )
        centers = np.array([q.rect.center.as_tuple() for q in queries])
        # Nodes live in [0, 3000]^2; nearly all proportional queries should too.
        inside = ((centers < 3500).all(axis=1)).mean()
        assert inside > 0.9

    def test_inverse_avoids_node_density(self, rng):
        nodes = self._nodes(rng)
        queries = generate_workload(
            self.BOUNDS, 100, 500.0, QueryDistribution.INVERSE, nodes, seed=5
        )
        centers = np.array([q.rect.center.as_tuple() for q in queries])
        inside_dense = ((centers < 3000).all(axis=1)).mean()
        # Dense area is 9% of the space; inverse should send few queries there.
        assert inside_dense < 0.15

    def test_random_is_spread_out(self):
        queries = generate_workload(
            self.BOUNDS, 200, 500.0, QueryDistribution.RANDOM, seed=6
        )
        centers = np.array([q.rect.center.as_tuple() for q in queries])
        # Roughly a quarter in each half along each axis.
        assert 0.3 < (centers[:, 0] < 5000).mean() < 0.7
        assert 0.3 < (centers[:, 1] < 5000).mean() < 0.7

    def test_density_distributions_require_nodes(self):
        for dist in (QueryDistribution.PROPORTIONAL, QueryDistribution.INVERSE):
            with pytest.raises(ValueError):
                generate_workload(self.BOUNDS, 5, 500.0, dist, None, seed=7)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            generate_workload(self.BOUNDS, -1, 500.0, QueryDistribution.RANDOM)
        with pytest.raises(ValueError):
            generate_workload(self.BOUNDS, 5, 0.0, QueryDistribution.RANDOM)

    def test_zero_queries_ok(self):
        assert generate_workload(self.BOUNDS, 0, 500.0, QueryDistribution.RANDOM) == []
