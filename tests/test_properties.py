"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PiecewiseLinearReduction, ThrotLoop, greedy_increment
from repro.core.greedy import RegionStats
from repro.geo import Point, Rect
from repro.motion.models import ModelDrivenTracker

from tests.oracles.greedy import _MinMultiset

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive = st.floats(min_value=0.1, max_value=1e4, allow_nan=False)


@st.composite
def rects(draw):
    x1 = draw(finite)
    y1 = draw(finite)
    w = draw(positive)
    h = draw(positive)
    return Rect(x1, y1, x1 + w, y1 + h)


@st.composite
def piecewise_reductions(draw):
    """Non-increasing piecewise-linear f with f(delta_min)=1."""
    n_segments = draw(st.integers(min_value=1, max_value=12))
    drops = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.3),
            min_size=n_segments,
            max_size=n_segments,
        )
    )
    values = [1.0]
    for d in drops:
        values.append(max(values[-1] - d, 0.01))
    knots = np.linspace(5.0, 5.0 + 5.0 * n_segments, n_segments + 1)
    return PiecewiseLinearReduction(knots, np.array(values))


@st.composite
def region_lists(draw):
    count = draw(st.integers(min_value=1, max_value=8))
    regions = []
    for i in range(count):
        regions.append(
            RegionStats(
                rect=Rect(i * 10.0, 0.0, (i + 1) * 10.0, 10.0),
                n=draw(st.floats(min_value=0.0, max_value=1000.0)),
                m=draw(st.floats(min_value=0.0, max_value=50.0)),
                s=draw(st.floats(min_value=0.0, max_value=30.0)),
            )
        )
    return regions


# ---------------------------------------------------------------------------
# Geometry properties
# ---------------------------------------------------------------------------


class TestRectProperties:
    @given(rects(), rects())
    def test_intersection_is_commutative(self, a, b):
        assert a.intersection(b) == b.intersection(a)

    @given(rects(), rects())
    def test_intersection_contained_in_both(self, a, b):
        inter = a.intersection(b)
        if inter is not None:
            assert inter.x1 >= a.x1 - 1e-9 and inter.x2 <= a.x2 + 1e-9
            assert inter.x1 >= b.x1 - 1e-9 and inter.x2 <= b.x2 + 1e-9
            assert inter.area <= min(a.area, b.area) + 1e-6

    @given(rects())
    def test_self_intersection_is_identity(self, r):
        assert r.intersection(r) == r

    @given(rects())
    def test_quadrants_partition_area_and_points(self, r):
        quads = r.quadrants()
        assert sum(q.area for q in quads) == np.float64(r.area) or abs(
            sum(q.area for q in quads) - r.area
        ) <= 1e-6 * max(r.area, 1.0)
        center_of_mass = r.center
        assert sum(q.contains(center_of_mass) for q in quads) == 1


# ---------------------------------------------------------------------------
# Reduction-function properties
# ---------------------------------------------------------------------------


class TestReductionProperties:
    @given(piecewise_reductions(), st.floats(min_value=0.0, max_value=1.0))
    def test_f_non_increasing_and_normalized(self, pw, t):
        delta = pw.delta_min + t * (pw.delta_max - pw.delta_min)
        assert pw.f(pw.delta_min) == 1.0
        assert 0.0 <= pw.f(delta) <= 1.0 + 1e-12

    @given(
        piecewise_reductions(),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_f_monotone(self, pw, t1, t2):
        span = pw.delta_max - pw.delta_min
        d1, d2 = sorted([pw.delta_min + t1 * span, pw.delta_min + t2 * span])
        assert pw.f(d1) >= pw.f(d2) - 1e-12

    @given(piecewise_reductions(), st.floats(min_value=0.01, max_value=1.0))
    def test_delta_for_fraction_is_feasible(self, pw, z):
        delta = pw.delta_for_fraction(z)
        assert pw.delta_min <= delta <= pw.delta_max
        if pw.f(pw.delta_max) <= z:
            assert pw.f(delta) <= z + 1e-6

    @given(piecewise_reductions(), st.floats(min_value=0.0, max_value=1.0))
    def test_rate_non_negative(self, pw, t):
        delta = pw.delta_min + t * (pw.delta_max - pw.delta_min)
        assert pw.r(delta) >= -1e-12


# ---------------------------------------------------------------------------
# GREEDYINCREMENT properties
# ---------------------------------------------------------------------------


class TestGreedyProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        region_lists(),
        piecewise_reductions(),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_thresholds_in_domain_and_budget(self, regions, pw, z):
        result = greedy_increment(regions, pw, z)
        assert (result.thresholds >= pw.delta_min - 1e-9).all()
        assert (result.thresholds <= pw.delta_max + 1e-9).all()
        weights = np.array([r.n * r.s for r in regions])
        if weights.sum() <= 0:
            weights = np.array([r.n for r in regions])
        realized = sum(
            w * pw.f(float(d)) for w, d in zip(weights, result.thresholds)
        )
        if result.budget_met:
            assert realized <= result.budget + 1e-6 * max(1.0, result.budget)
        else:
            # Unreachable budget: all sheddable regions saturate.
            for w, d in zip(weights, result.thresholds):
                if w > 0:
                    assert d == pw.delta_max

    @settings(max_examples=60, deadline=None)
    @given(
        region_lists(),
        piecewise_reductions(),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=60.0),
    )
    def test_fairness_invariant(self, regions, pw, z, fairness):
        result = greedy_increment(regions, pw, z, fairness=fairness)
        spread = result.thresholds.max() - result.thresholds.min()
        assert spread <= fairness + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(region_lists(), piecewise_reductions())
    def test_inaccuracy_monotone_in_z(self, regions, pw):
        """More budget can never hurt: inaccuracy(z=0.8) <= inaccuracy(z=0.3)."""
        loose = greedy_increment(regions, pw, 0.8)
        tight = greedy_increment(regions, pw, 0.3)
        assert loose.inaccuracy <= tight.inaccuracy + 1e-6


# ---------------------------------------------------------------------------
# Supporting structures
# ---------------------------------------------------------------------------


class TestMinMultisetProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=20),
        st.data(),
    )
    def test_min_always_matches_reference(self, initial, data):
        ms = _MinMultiset(np.array(initial))
        reference = list(initial)
        for _ in range(10):
            assert ms.min() == min(reference)
            old = data.draw(st.sampled_from(reference))
            new = data.draw(st.floats(min_value=0, max_value=100))
            ms.update(old, new)
            reference.remove(old)
            reference.append(new)
        assert ms.min() == min(reference)


class TestThrotLoopProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30
        )
    )
    def test_z_stays_in_unit_interval(self, utilizations):
        loop = ThrotLoop(queue_capacity=20, z_floor=0.001)
        for u in utilizations:
            z = loop.step_utilization(u)
            assert 0.0 < z <= 1.0


class TestDeadReckoningProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(finite, finite, finite, finite),
            min_size=2,
            max_size=25,
        ),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_server_view_error_bounded_by_threshold(self, samples, threshold):
        """Whenever no report fires, the model deviation is <= threshold —
        i.e. dead reckoning guarantees the inaccuracy bound."""
        tracker = ModelDrivenTracker(0)
        for tick, (x, y, vx, vy) in enumerate(samples):
            t = float(tick)
            pos, vel = Point(x, y), Point(vx, vy)
            if not tracker.observe(t, pos, vel, threshold):
                assert tracker.model.deviation(t, pos) <= threshold + 1e-9
            else:
                assert tracker.model.deviation(t, pos) == 0.0


# ---------------------------------------------------------------------------
# Shedding-plan rasterization properties
# ---------------------------------------------------------------------------


@st.composite
def quadtree_partitions(draw):
    """A random quadtree-aligned partitioning of a 64x64 space."""
    rects = []

    def split(rect, depth):
        if depth > 0 and draw(st.booleans()):
            for quadrant in rect.quadrants():
                split(quadrant, depth - 1)
        else:
            rects.append(rect)

    split(Rect(0.0, 0.0, 64.0, 64.0), 3)
    return rects


class TestPlanRasterizationProperties:
    @settings(max_examples=40, deadline=None)
    @given(quadtree_partitions(), st.data())
    def test_lookup_matches_containment(self, rects, data):
        from repro.core.greedy import RegionStats
        from repro.core.plan import SheddingPlan

        regions = [RegionStats(rect=r, n=1.0, m=0.0, s=1.0) for r in rects]
        thresholds = np.arange(5.0, 5.0 + len(regions), dtype=np.float64)
        plan = SheddingPlan.from_regions(
            Rect(0.0, 0.0, 64.0, 64.0), regions, thresholds, resolution=64
        )
        for _ in range(20):
            x = data.draw(st.floats(min_value=0, max_value=63.999))
            y = data.draw(st.floats(min_value=0, max_value=63.999))
            region_id = int(plan.region_ids_for(np.array([[x, y]]))[0])
            assert plan.regions[region_id].rect.contains_xy(x, y)
            assert plan.region_at(x, y).delta == thresholds[region_id]

    @settings(max_examples=30, deadline=None)
    @given(quadtree_partitions())
    def test_partition_tiles_space(self, rects):
        total = sum(r.area for r in rects)
        assert total == 64.0 * 64.0
