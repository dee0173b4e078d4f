"""Property-style tests: QueryEvalKernel == RangeQuery.evaluate, always.

Random snapshots and workloads, plus the adversarial corners: empty
(zero-area) queries, nodes exactly on rectangle edges, NaN/inf believed
positions, out-of-bounds nodes, and degenerate bucket resolutions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import Rect
from repro.queries import (
    QueryDistribution,
    QueryEvalKernel,
    RangeQuery,
    evaluate_queries,
    generate_workload,
    stack_bounds,
)
from repro.server import MobileCQServer
from tests.oracles.measurement import BruteForceMeasurement

BOUNDS = Rect(0.0, 0.0, 1000.0, 1000.0)


def random_workload(rng, n_queries, allow_empty=True):
    queries = []
    for i in range(n_queries):
        x1, y1 = rng.uniform(-100.0, 1000.0, 2)
        w, h = rng.uniform(0.0, 400.0, 2)
        if allow_empty and i % 7 == 0:
            w = 0.0  # zero-width: can never contain anything
        queries.append(RangeQuery(i, Rect(x1, y1, x1 + w, y1 + h)))
    return queries


def random_positions(rng, n):
    positions = rng.uniform(-200.0, 1200.0, (n, 2))
    if n >= 8:
        positions[0] = (np.nan, np.nan)
        positions[1] = (np.nan, 500.0)
        positions[2] = (np.inf, 500.0)
        positions[3] = (-np.inf, 500.0)
    return positions


def assert_same_results(expected, actual):
    assert len(expected) == len(actual)
    for e, a in zip(expected, actual):
        np.testing.assert_array_equal(e, a)


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("cells", [1, 4, 64])
    def test_random_snapshots_match_bruteforce(self, seed, cells):
        rng = np.random.default_rng(seed)
        queries = random_workload(rng, 30)
        positions = random_positions(rng, 300)
        kernel = QueryEvalKernel(queries, bounds=BOUNDS, cells_per_side=cells)
        reference = evaluate_queries(queries, positions)
        assert_same_results(reference, kernel.evaluate(positions, prune=False))
        assert_same_results(reference, kernel.evaluate(positions, prune=True))

    def test_no_bounds_dense_only(self, rng):
        queries = random_workload(rng, 12)
        positions = random_positions(rng, 100)
        kernel = QueryEvalKernel(queries)
        assert_same_results(
            evaluate_queries(queries, positions), kernel.evaluate(positions)
        )
        with pytest.raises(ValueError):
            kernel.containment(positions, prune=True)

    def test_nodes_exactly_on_edges(self):
        rect = Rect(10.0, 10.0, 20.0, 20.0)
        queries = [RangeQuery(0, rect)]
        positions = np.array(
            [
                [10.0, 10.0],  # min corner: inside (closed low edge)
                [20.0, 20.0],  # max corner: outside (open high edge)
                [10.0, 20.0],
                [20.0, 10.0],
                [15.0, 10.0],  # on low y edge: inside
                [15.0, 20.0],  # on high y edge: outside
                [np.nextafter(20.0, 0.0), np.nextafter(20.0, 0.0)],
            ]
        )
        for prune in (False, True):
            kernel = QueryEvalKernel(queries, bounds=BOUNDS, cells_per_side=16)
            result = kernel.evaluate(positions, prune=prune)[0]
            np.testing.assert_array_equal(result, [0, 4, 6])
            assert_same_results(evaluate_queries(queries, positions), [result])

    def test_empty_query_and_empty_snapshot(self):
        queries = [RangeQuery(0, Rect(5.0, 5.0, 5.0, 9.0))]
        kernel = QueryEvalKernel(queries, bounds=BOUNDS, cells_per_side=8)
        assert kernel.evaluate(np.array([[5.0, 6.0]]))[0].size == 0
        empty = kernel.evaluate(np.empty((0, 2)))
        assert len(empty) == 1 and empty[0].size == 0
        assert kernel.containment(np.empty((0, 2)), prune=True).shape == (1, 0)

    def test_nan_inf_believed_positions_in_measure(self, rng):
        queries = random_workload(rng, 20, allow_empty=False)
        positions = rng.uniform(0.0, 1000.0, (200, 2))
        believed = positions + rng.normal(0.0, 30.0, positions.shape)
        believed[:40] = np.nan  # never-reported nodes
        kernel = QueryEvalKernel(queries, bounds=BOUNDS, cells_per_side=32)
        m = kernel.measure(positions, believed)
        reference = BruteForceMeasurement(queries).measure(positions, believed)
        for name in ("containment_error", "has_true", "position_error", "has_believed"):
            # Bitwise (assert_array_equal treats NaN == NaN).
            np.testing.assert_array_equal(getattr(m, name), getattr(reference, name))
        assert m.has_true.any() and m.has_believed.any()
        for members in kernel.evaluate(believed):
            assert not (members < 40).any()  # never-reported nodes join no result

    def test_stack_bounds_layout(self):
        queries = [RangeQuery(0, Rect(1.0, 2.0, 3.0, 4.0))]
        np.testing.assert_array_equal(stack_bounds(queries), [[1.0, 2.0, 3.0, 4.0]])

    def test_bucket_superset_covers_all_contained_pairs(self, rng):
        """Every actually-contained (query, node) pair must be a candidate."""
        queries = random_workload(rng, 25)
        positions = random_positions(rng, 250)
        kernel = QueryEvalKernel(queries, bounds=BOUNDS, cells_per_side=16)
        dense = kernel.containment(positions, prune=False)
        pruned = kernel.containment(positions, prune=True)
        np.testing.assert_array_equal(dense, pruned)


def ulp_neighbours(value):
    """``value`` and its neighbours 1-3 ulp to either side."""
    out = [value]
    for toward in (-np.inf, np.inf):
        v = value
        for _ in range(3):
            v = np.nextafter(v, toward)
            out.append(v)
    return out


def inside(lo, hi):
    """A coordinate well inside ``[lo, hi)`` (``lo`` itself when empty), so
    the other axis' edge alone decides membership."""
    lo_f, hi_f = max(lo, -1e300), min(hi, 1e300)
    return lo_f + (hi_f - lo_f) / 2.0 if lo_f < hi_f else lo


@st.composite
def edge_scenes(draw):
    """(bounds, cells, queries, positions) aimed at the pruning boundary.

    Offset-origin bounds whose cell lines are not exact floats; rect
    edges drawn *on* cell lines (inside, on the border of and beyond the
    bounds), zero-width and open-ended among them; positions 1-3 ulp
    around every rect edge and a sample of cell lines, each paired with
    a coordinate inside the query on the other axis, plus NaN, inf and
    out-of-bounds rows.
    """
    # Hypothesis prefers round floats, whose cell lines are exact; take
    # the geometry from a drawn seed so the rounding cases show up.
    geometry = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    origin = float(geometry.uniform(-1e4, 1e4))
    side = float(geometry.uniform(1.0, 5e4))
    cells = draw(st.sampled_from([1, 3, 16, 50, 128]))
    bounds = Rect(origin, origin, origin + side, origin + side)
    width = bounds.width / cells

    def line(k):
        return origin + k * width

    on_line = st.integers(-2, cells + 2).map(line)
    edge = st.one_of(
        on_line,
        on_line,
        on_line,
        st.floats(origin - side, origin + 2 * side, allow_nan=False),
        st.sampled_from([-np.inf, np.inf]),
    )
    queries = []
    for qi in range(draw(st.integers(1, 8))):
        xa, xb, ya, yb = (draw(edge) for _ in range(4))
        if draw(st.integers(0, 5)) == 0:
            xb = xa  # zero width
        queries.append(
            RangeQuery(qi, Rect(min(xa, xb), min(ya, yb), max(xa, xb), max(ya, yb)))
        )
    lines = [line(k) for k in draw(st.lists(st.integers(0, cells), max_size=4))]
    specials = [np.nan, np.inf, -np.inf, origin - 3 * side, origin + 5 * side]
    points = []
    for query in queries:
        r = query.rect
        xs = [v for e in (r.x1, r.x2, *lines) for v in ulp_neighbours(e)] + specials
        ys = [v for e in (r.y1, r.y2, *lines) for v in ulp_neighbours(e)] + specials
        mid_x, mid_y = inside(r.x1, r.x2), inside(r.y1, r.y2)
        points += [(x, mid_y) for x in xs] + [(mid_x, y) for y in ys]
        points += list(zip(xs, ys)) + list(zip(xs, reversed(ys)))
    return bounds, cells, queries, np.array(points, dtype=np.float64)


class TestIndexIsASupersetFilter:
    """The cell -> query index may only ever prune non-members: positions
    and rect edges share one monotone cell function and the hi cell is
    inclusive.  (With the hi cell taken as ``ceil(...) - 1`` — the
    pre-PR-17 rule — both tests below fail.)"""

    def test_point_just_below_edge_on_a_cell_line(self):
        lo, hi = -993.2126670142607, 22071.77759015149
        x2 = 268.1539876744914  # on cell line 7 of 128, up to rounding
        queries = [RangeQuery(0, Rect(-500.0, -500.0, x2, x2))]
        kernel = QueryEvalKernel(queries, bounds=Rect(lo, lo, hi, hi), cells_per_side=128)
        below1 = np.nextafter(x2, -np.inf)
        below2 = np.nextafter(below1, -np.inf)
        positions = np.array(
            [[below1, 0.0], [below2, 0.0], [0.0, below1], [0.0, below2], [x2, 0.0]]
        )
        np.testing.assert_array_equal(kernel.evaluate(positions)[0], [0, 1, 2, 3])

    @settings(max_examples=150, deadline=None)
    @given(edge_scenes())
    def test_indexed_evaluate_equals_bruteforce(self, scene):
        bounds, cells, queries, positions = scene
        kernel = QueryEvalKernel(queries, bounds=bounds, cells_per_side=cells)
        assert_same_results(
            evaluate_queries(queries, positions), kernel.evaluate(positions)
        )


class TestCandidateCounts:
    def test_index_prunes_the_loop_250k_scene(self, rng):
        """Counted gate (no stopwatch): on the ``loop-250k`` geometry —
        64 proportional 500 m queries over 14 km, scaled to N = 20 000 —
        the server's index looks at <= 15 % of the rows and compares
        <= 0.5 % of the Q x N pairs a scan would."""
        n, side = 20_000, 14_000.0
        bounds = Rect(0.0, 0.0, side, side)
        positions = rng.uniform(0.0, side, (n, 2))
        queries = generate_workload(
            bounds, 64, 500.0, QueryDistribution.PROPORTIONAL, positions, seed=3
        )
        server = MobileCQServer(bounds, n, queries, service_rate=1.0)
        server.table.ingest(0.0, np.arange(n), positions, np.zeros((n, 2)))
        results = server.evaluate_queries(0.0)
        assert_same_results(evaluate_queries(queries, positions), results)
        assert sum(r.size for r in results) > 0
        assert server.kernel.last_candidate_rows / n <= 0.15
        assert server.kernel.last_candidate_pairs / (len(queries) * n) <= 0.005
