"""Vectorized node-side engine: exact equivalence with the per-node oracle.

The SoA engine (:class:`repro.server.VectorNodeEngine`) is only
admissible because it is *bit-identical* to the per-``MobileNode``
reference loop (``tests/oracles/system.py``) — not approximately equal.
These tests pin that contract at three levels:

* unit: :class:`StationAssigner` vs ``BaseStationNetwork.station_for``
  and the per-station threshold raster vs ``MobileNode`` lookups,
  including half-open region boundaries and overlap tie-breaking;
* system: a ``LiraSystem`` run and a ``ReferenceLiraSystem`` run at
  matched seeds must produce the same sent-report counts, believed
  positions, stats counters, plans, thresholds, history and query
  results, for both policies, with and without fault injection;
* batched ingest: ``ArrayBoundedQueue`` and
  ``StatisticsGrid.ingest_updates`` against their scalar twins.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnalyticReduction, LiraConfig
from repro.core.greedy import RegionStats
from repro.core.plan import SheddingPlan, SheddingRegion
from repro.faults import FaultSpec
from repro.geo import Point, Rect
from repro.server import (
    BaseStation,
    BaseStationNetwork,
    LiraSystem,
    RegionSubset,
    StationAssigner,
    place_uniform_stations,
)
from repro.server.node_engine import _EXACT, _SPLIT, VectorNodeEngine, _ThresholdRaster
from repro.server.queue import ArrayBoundedQueue

from tests.oracles.node_engine import full_gather_thresholds, hypot_locate, int_cells_of
from tests.oracles.system import (
    BoundedQueue,
    MobileNode,
    ObjectNodeEngine,
    ReferenceLiraSystem,
    UpdateMessage,
    run_deployment,
)

BOUNDS = Rect(0.0, 0.0, 4000.0, 4000.0)

def _stats_fields(stats):
    return {name: getattr(stats, name) for name in stats.__dataclass_fields__}


# ----------------------------------------------------------------------
# StationAssigner vs BaseStationNetwork.station_for
# ----------------------------------------------------------------------


class TestStationAssigner:
    @pytest.fixture(scope="class")
    def network(self):
        stations = place_uniform_stations(BOUNDS, radius=1500.0)
        return BaseStationNetwork(stations)

    @pytest.fixture(scope="class")
    def assigner(self, network):
        return StationAssigner(network.stations, BOUNDS)

    def test_matches_station_for_inside_bounds(self, network, assigner):
        rng = np.random.default_rng(7)
        x = rng.uniform(BOUNDS.x1, BOUNDS.x2, 4000)
        y = rng.uniform(BOUNDS.y1, BOUNDS.y2, 4000)
        _assert_matches_station_for(assigner, network, x, y)

    def test_matches_station_for_outside_bounds(self, network, assigner):
        rng = np.random.default_rng(8)
        x = rng.uniform(BOUNDS.x1 - 3000.0, BOUNDS.x2 + 3000.0, 500)
        y = rng.uniform(BOUNDS.y1 - 3000.0, BOUNDS.y2 + 3000.0, 500)
        _assert_matches_station_for(assigner, network, x, y)

    def test_cell_edges_and_station_centers(self, network, assigner):
        """Coarse and fine raster lines and station centers resolve alike."""
        edges = np.linspace(BOUNDS.x1, BOUNDS.x2, assigner.fine_resolution + 1)
        assert assigner.fine_resolution % assigner.resolution == 0
        xs = np.concatenate([np.repeat(edges, edges.size), assigner._cx[:-1]])
        ys = np.concatenate([np.tile(edges, edges.size), assigner._cy[:-1]])
        _assert_matches_station_for(assigner, network, xs, ys)

    def test_tie_breaks_to_first_station_in_list_order(self):
        """Equidistant covering stations: list order wins, as in min()."""
        stations = [
            BaseStation(station_id=10, center=Point(0.0, 0.0), radius=5.0),
            BaseStation(station_id=11, center=Point(4.0, 0.0), radius=5.0),
        ]
        bounds = Rect(-6.0, -6.0, 10.0, 6.0)
        assigner = StationAssigner(stations, bounds)
        network = BaseStationNetwork(stations)
        # x = 2 is exactly equidistant; both cover it.
        slot = assigner.assign(np.array([2.0]), np.array([0.0]))[0]
        assert stations[slot] is network.station_for(2.0, 0.0)
        assert stations[slot].station_id == 10

    def test_uncovered_point_falls_back_to_nearest(self):
        stations = [
            BaseStation(station_id=0, center=Point(0.0, 0.0), radius=1.0),
            BaseStation(station_id=1, center=Point(100.0, 0.0), radius=1.0),
        ]
        bounds = Rect(-10.0, -10.0, 110.0, 10.0)
        assigner = StationAssigner(stations, bounds)
        slot = assigner.assign(np.array([70.0]), np.array([0.0]))[0]
        assert slot == 1

    def test_candidate_raster_prunes(self):
        """Four nodes in five sit in a cell with one candidate: no resolve."""
        bounds = Rect(0.0, 0.0, 14_000.0, 14_000.0)
        stations = place_uniform_stations(bounds, radius=1500.0)
        assigner = StationAssigner(stations, bounds)
        rng = np.random.default_rng(5)
        x = rng.uniform(bounds.x1, bounds.x2, 50_000)
        y = rng.uniform(bounds.y1, bounds.y2, 50_000)
        single = assigner._single[assigner.cells_of(x, y)] >= 0
        assert single.mean() >= 0.8


def _assert_matches_station_for(assigner, network, x, y):
    slots = assigner.assign(x, y)
    for i in range(x.size):
        expected = network.station_for(float(x[i]), float(y[i]))
        assert assigner.stations[slots[i]] is expected, (x[i], y[i])


#: Coordinates on a quarter-unit lattice are exact in floating point, so
#: drawn layouts really contain coincident and equidistant centers.
_lattice = st.integers(-40, 440).map(lambda k: k / 4.0)
_station = st.tuples(
    _lattice,
    _lattice,
    st.one_of(st.sampled_from([0.25, 5.0, 20.0, 60.0]), st.floats(0.5, 150.0)),
)


class TestStationAssignerProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.lists(_station, min_size=1, max_size=12),
        origin=st.tuples(_lattice, _lattice),
        size=st.tuples(st.integers(1, 1600), st.integers(1, 1600)),
        resolution=st.sampled_from([None, 1, 2, 3, 7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_assign_matches_station_for(self, layout, origin, size, resolution, seed):
        """Unequal radii, coverage gaps, ties, raster lines, out of bounds."""
        stations = [
            BaseStation(station_id=3 * k + 1, center=Point(x, y), radius=r)
            for k, (x, y, r) in enumerate(layout)
        ]
        bounds = Rect(
            origin[0], origin[1], origin[0] + size[0] / 4.0, origin[1] + size[1] / 4.0
        )
        assigner = StationAssigner(stations, bounds, resolution=resolution)
        network = BaseStationNetwork(stations)
        rng = np.random.default_rng(seed)
        lines_x = np.linspace(bounds.x1, bounds.x2, assigner.fine_resolution + 1)
        lines_y = np.linspace(bounds.y1, bounds.y2, assigner.fine_resolution + 1)
        cx, cy = assigner._cx[:-1], assigner._cy[:-1]
        xs = np.concatenate([
            rng.uniform(bounds.x1, bounds.x2, 60),  # inside
            rng.uniform(bounds.x1 - 50.0, bounds.x2 + 50.0, 20),  # maybe outside
            rng.choice(lines_x, 40),  # on fine (every 5th: coarse) lines
            rng.choice(lines_x, 20),
            cx,  # station centers
            (cx[:, None] + cx[None, :]).ravel() / 2.0,  # equidistant midpoints
        ])
        ys = np.concatenate([
            rng.uniform(bounds.y1, bounds.y2, 60),
            rng.uniform(bounds.y1 - 50.0, bounds.y2 + 50.0, 20),
            rng.choice(lines_y, 40),
            rng.uniform(bounds.y1, bounds.y2, 20),
            cy,
            (cy[:, None] + cy[None, :]).ravel() / 2.0,
        ])
        _assert_matches_station_for(assigner, network, xs, ys)


def _on_the_boundaries(centers, radii, rng):
    """Station centres, points on every pairwise bisector (exactly where
    the lattice allows, else to the nearest float) and on every coverage
    circle."""
    i, j = np.triu_indices(len(centers), 1)
    along = (centers[j] - centers[i])[:, ::-1] * [-1.0, 1.0]  # bisector direction
    t = np.concatenate([
        rng.choice([0.0, 0.25, -0.5, 1.0, -2.0, 3.0], (i.size, 3, 1)),
        rng.uniform(-3.0, 3.0, (i.size, 3, 1)),
    ], axis=1)
    bisectors = (centers[i] + centers[j])[:, None] / 2.0 + t * along[:, None]
    ways = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.6, 0.8], [-0.8, -0.6]])
    circles = centers[:, None] + radii[:, None, None] * ways
    return np.concatenate([centers, bisectors.reshape(-1, 2), circles.reshape(-1, 2)])


def _spy_on_resolve(assigner, monkeypatch):
    """The row counts of every call :meth:`StationAssigner.locate` makes
    to its ``hypot`` resolve from now on."""
    seen, resolve = [], assigner._resolve

    def spy(x, y, cand):
        seen.append(x.size)
        return resolve(x, y, cand)

    monkeypatch.setattr(assigner, "_resolve", spy)
    return seen


class TestFilteredResolve:
    """``locate`` reads a contested row's winner from its cell's proved
    split and sends every row the split leaves to the ``hypot`` resolve:
    its slots and entries are the no-split walk's, exactly."""

    @settings(max_examples=100, deadline=None)
    @given(
        layout=st.one_of(
            st.lists(_station, min_size=2, max_size=2),  # ``everyone`` is two rows
            st.lists(_station, min_size=1, max_size=8),
        ),
        # A second station on the first one's centre, or next to it at a
        # distance whose square is subnormal.
        twin=st.one_of(
            st.none(), st.tuples(st.floats(0.5, 150.0), st.sampled_from([0.0, 2.0**-535]))
        ),
        origin=st.tuples(_lattice, _lattice),
        size=st.tuples(st.integers(1, 1600), st.integers(1, 1600)),
        resolution=st.sampled_from([None, 1, 3]),
        # Powers of two keep the lattice exact: ~1e±150 puts squares near
        # the ends of the normal range, ~1e154 past it.
        scale=st.sampled_from([0, 0, 0, -500, 500, 512]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_locate_matches_the_hypot_walk(
        self, layout, twin, origin, size, resolution, scale, seed
    ):
        """Coincident stations, points on bisectors and coverage circles
        and 1-3 ulps either side, at and next to station centres, tiny and
        huge coordinates, and non-finite positions out of bounds."""
        offset = 1.0
        if twin is not None:
            radius, offset = twin
            if offset:  # the first station moves to (0, 0), where such offsets exist
                layout = [(x - layout[0][0], y - layout[0][1], r) for x, y, r in layout]
            layout = [*layout, (layout[0][0] + offset, layout[0][1] + offset / 2, radius)]
        unit = 2.0**scale
        stations = [
            BaseStation(station_id=k + 1, center=Point(x * unit, y * unit), radius=r * unit)
            for k, (x, y, r) in enumerate(layout)
        ]
        bounds = Rect(
            origin[0] * unit, origin[1] * unit,
            (origin[0] + size[0] / 4.0) * unit, (origin[1] + size[1] / 4.0) * unit,
        )
        rng = np.random.default_rng(seed)
        centers = np.array([[s.center.x, s.center.y] for s in stations])
        radii = np.array([s.radius for s in stations])
        on = _on_the_boundaries(centers, radii, rng)
        next_to = centers[0] + (offset or 1.0) * unit * rng.uniform(-3.0, 3.0, (20, 2))
        wild = np.array([np.inf, -np.inf, np.nan, 1e150, -1e150])
        points = np.concatenate([
            on,
            np.column_stack([_ulps_away(on[:, 0], rng), _ulps_away(on[:, 1], rng)]),
            np.column_stack([_ulps_away(on[:, 0], rng), on[:, 1]]),
            next_to,
            np.column_stack([rng.uniform(bounds.x1, bounds.x2, 40),
                             rng.uniform(bounds.y1, bounds.y2, 40)]),
            np.column_stack([rng.choice(wild, 10), rng.uniform(bounds.y1, bounds.y2, 10)]),
            np.column_stack([rng.uniform(bounds.x1, bounds.x2, 10), rng.choice(wild, 10)]),
        ])
        x, y = points[:, 0].copy(), points[:, 1].copy()
        with np.errstate(all="ignore"):
            assigner = StationAssigner(stations, bounds, resolution=resolution)
            slots, entries = assigner.locate(x, y)
            want_slots, want_entries = hypot_locate(assigner, x, y)
        assert np.array_equal(slots, want_slots)
        assert np.array_equal(entries, want_entries)
        assert 0 <= assigner.last_hypot_rows <= x.size

    def test_rows_inside_the_band_are_left_to_hypot(self):
        """Just right of the bisector x = 0 of two stations 2 km apart the
        right one is nearer, by less than ``hypot`` resolves below
        x ≈ 10⁻¹³: those rows tie, and the tie goes to the first station."""
        stations = [
            BaseStation(station_id=1, center=Point(-1000.0, 0.0), radius=1500.0),
            BaseStation(station_id=2, center=Point(1000.0, 0.0), radius=1500.0),
        ]
        assigner = StationAssigner(stations, Rect(-2000.0, -1000.0, 2000.0, 1000.0))
        rng = np.random.default_rng(4)
        x = np.concatenate([np.geomspace(1e-300, 2.0 * assigner._band, 400), [0.0]])
        x = np.concatenate([x, -x])
        y = rng.uniform(-1000.0, 1000.0, x.size)
        slots, entries = assigner.locate(x.copy(), y.copy())
        want_slots, want_entries = hypot_locate(assigner, x.copy(), y.copy())
        assert (want_slots[x > 0] == 0).any() and (want_slots[x > 0] == 1).any()
        assert np.array_equal(slots, want_slots)
        assert np.array_equal(entries, want_entries)

    def test_a_lead_below_rounding_is_not_proved(self):
        """Twin stations 10⁻⁶ apart on one axis: past the band, the nearer
        one leads by less than ``hypot`` resolves, so the split must leave
        those rows to the resolve, whose tie goes to the first station."""
        stations = [
            BaseStation(station_id=1, center=Point(0.0, 0.0), radius=2000.0),
            BaseStation(station_id=2, center=Point(1e-6, 0.0), radius=2000.0),
        ]
        bounds = Rect(-1000.0, -1000.0, 1000.0, 1000.0)
        assigner = StationAssigner(stations, bounds)
        rng = np.random.default_rng(3)
        x = 5e-7 + np.geomspace(1.5, 50.0, 4000) * assigner._band
        y = rng.uniform(-1000.0, 1000.0, x.size)
        slots, entries = assigner.locate(x.copy(), y.copy())
        want_slots, want_entries = hypot_locate(assigner, x.copy(), y.copy())
        assert (want_slots == 0).any() and (want_slots == 1).any()
        assert np.array_equal(slots, want_slots)
        assert np.array_equal(entries, want_entries)

    def test_contested_rows_rarely_pay_hypot(self, monkeypatch):
        """Counted gate: on 20 000 uniform nodes over the 14 km, 49-station
        lattice, at most 0.1 % of the contested rows fall through to
        ``np.hypot`` — none does: the split decides every one, so the
        resolve is never called."""
        bounds = Rect(0.0, 0.0, 14_000.0, 14_000.0)
        assigner = StationAssigner(place_uniform_stations(bounds, radius=1500.0), bounds)
        assert len(assigner.stations) == 49
        rng = np.random.default_rng(21)
        x, y = rng.uniform(0.0, 14_000.0, (2, 20_000))
        contested = int((assigner._single[assigner.cells_of(x, y)] < 0).sum())
        assert contested > 2000
        resolved = _spy_on_resolve(assigner, monkeypatch)
        slots, entries = assigner.locate(x, y)
        assert assigner.last_hypot_rows <= 0.001 * contested
        assert sum(resolved) == 0
        monkeypatch.undo()
        want = hypot_locate(assigner, x, y)
        assert np.array_equal(slots, want[0]) and np.array_equal(entries, want[1])


#: Lattices whose every contested cell has a split: square, and non-square
#: with lines across cell interiors.
_LATTICES = [(14_000.0, 14_000.0), (10_000.0, 10_000.0), (14_000.0, 9_000.0), (20_000.0, 7_000.0)]


class TestLatticeSplit:
    """The per-cell split on ``place_uniform_stations`` lattices, whose
    assignment boundaries are axis-parallel lines: offset and non-square
    bounds put them across cell interiors, not only along cell edges."""

    @settings(max_examples=40, deadline=None)
    @given(
        origin=st.tuples(st.floats(-5e4, 5e4), st.floats(-5e4, 5e4)),
        size=st.tuples(st.floats(1500.0, 16_000.0), st.floats(1500.0, 16_000.0)),
        radius=st.one_of(st.just(1500.0), st.floats(1000.0, 4000.0)),
        resolution=st.sampled_from([None, None, 3, 7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_locate_matches_the_no_split_walk_and_station_for(
        self, origin, size, radius, resolution, seed
    ):
        """Points on every bisector and at ±band/2, ±band and ±2·band
        across it, each 0 or 1-3 ulps away, where two lines cross too, and
        uniform points."""
        bounds = Rect(origin[0], origin[1], origin[0] + size[0], origin[1] + size[1])
        stations = place_uniform_stations(bounds, radius=radius)
        assigner = StationAssigner(stations, bounds, resolution=resolution)
        rng = np.random.default_rng(seed)
        across = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0]) * assigner._band
        lines = []
        for axis in (0, 1):
            centres = np.unique([(s.center.x, s.center.y)[axis] for s in stations])
            lines.append(((centres[1:] + centres[:-1]) / 2)[:, None] + across)
        x_lines, y_lines = (v.ravel() for v in lines)
        x_lines = np.concatenate([x_lines, _ulps_away(x_lines, rng, least=1)])
        y_lines = np.concatenate([y_lines, _ulps_away(y_lines, rng, least=1)])
        x1, y1, x2, y2 = bounds.x1, bounds.y1, bounds.x2, bounds.y2
        n_x, n_y = x_lines.size, y_lines.size
        parts = [
            rng.uniform((x1, y1), (x2, y2), (200, 2)),
            np.column_stack([np.repeat(x_lines, 3), rng.uniform(y1, y2, 3 * n_x)]),
            np.column_stack([rng.uniform(x1, x2, 3 * n_y), np.repeat(y_lines, 3)]),
        ]
        if n_x and n_y:
            parts.append(np.column_stack([rng.choice(x_lines, 200), rng.choice(y_lines, 200)]))
        x, y = np.concatenate(parts).T
        slots, entries = assigner.locate(x.copy(), y.copy())
        want_slots, want_entries = hypot_locate(assigner, x.copy(), y.copy())
        assert np.array_equal(slots, want_slots)
        assert np.array_equal(entries, want_entries)
        # ``station_for`` measures with ``math.hypot``, which can round a
        # near-tie the other way from ``np.hypot``: it is the judge only
        # clear of the band, where no rounding decides.
        clear = np.ones(x.size, dtype=bool)
        for v, bisectors in ((x, lines[0][:, 0]), (y, lines[1][:, 0])):
            gap = np.abs(v[:, None] - bisectors).min(axis=1, initial=np.inf)
            clear &= gap > 1.5 * assigner._band
        sample = rng.choice(np.flatnonzero(clear), 300)
        _assert_matches_station_for(assigner, BaseStationNetwork(stations), x[sample], y[sample])

    @pytest.mark.parametrize("width, height", _LATTICES)
    def test_every_contested_cell_has_a_split(self, width, height, monkeypatch):
        """Counted gate: every contested cell has a split, and none of
        200 000 uniform positions reaches the resolve."""
        bounds = Rect(0.0, 0.0, width, height)
        assigner = StationAssigner(place_uniform_stations(bounds, radius=1500.0), bounds)
        contested = np.flatnonzero(assigner._n_candidates[:-1] > 1)
        assert contested.size > 1000
        assert not np.isnan(assigner._x_line[contested]).any()
        assert (assigner._split_slot[contested] >= 0).any(axis=1).all()
        rng = np.random.default_rng(34)
        x, y = rng.uniform(0.0, width, 200_000), rng.uniform(0.0, height, 200_000)
        resolved = _spy_on_resolve(assigner, monkeypatch)
        slots, entries = assigner.locate(x, y)
        assert sum(resolved) == 0 and assigner.last_hypot_rows == 0
        monkeypatch.undo()
        want_slots, want_entries = hypot_locate(assigner, x, y)
        assert np.array_equal(slots, want_slots) and np.array_equal(entries, want_entries)


class TestCellsOf:
    @settings(max_examples=60, deadline=None)
    @given(
        origin=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
        size=st.tuples(st.floats(1e-3, 1e5), st.floats(1e-3, 1e5)),
        resolution=st.sampled_from([None, 1, 3, 7, 128]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_float_form_matches_the_int_cast(self, origin, size, resolution, seed):
        """Offset-origin bounds: every raster line, 1-3 ulps either side of
        it, and the upper edges ``x == x2``, ``y == y2`` map to the cell the
        int64 cast of the same quotient picks."""
        bounds = Rect(origin[0], origin[1], origin[0] + size[0], origin[1] + size[1])
        stations = [BaseStation(station_id=1, center=Point(*origin), radius=1.0)]
        assigner = StationAssigner(stations, bounds, resolution=resolution)
        rng = np.random.default_rng(seed)
        steps = np.arange(assigner.fine_resolution + 1)
        lines_x = np.concatenate([bounds.x1 + steps * assigner._cell_w,
                                  np.linspace(bounds.x1, bounds.x2, steps.size)])
        lines_y = np.concatenate([bounds.y1 + steps * assigner._cell_h,
                                  np.linspace(bounds.y1, bounds.y2, steps.size)])
        mid_x, mid_y = (bounds.x1 + bounds.x2) / 2.0, (bounds.y1 + bounds.y2) / 2.0
        x = np.concatenate([lines_x, _ulps_away(lines_x, rng), _ulps_away(lines_x, rng),
                            [bounds.x2, bounds.x2, bounds.x1, mid_x, bounds.x2]])
        y = np.concatenate([rng.permutation(lines_y), _ulps_away(lines_y, rng),
                            rng.choice(lines_y, lines_y.size),
                            [bounds.y2, bounds.y1, bounds.y2, bounds.y2, mid_y]])
        inside = (x >= bounds.x1) & (x <= bounds.x2) & (y >= bounds.y1) & (y <= bounds.y2)
        x, y = x[inside], y[inside]
        assert (x == bounds.x2).sum() >= 3 and (y == bounds.y2).sum() >= 3
        assert np.array_equal(assigner.cells_of(x, y), int_cells_of(assigner, x, y))


# ----------------------------------------------------------------------
# _ThresholdRaster vs MobileNode.current_threshold
# ----------------------------------------------------------------------


def _region(x1, y1, x2, y2, delta):
    return SheddingRegion(
        rect=Rect(x1, y1, x2, y2), delta=delta, n=1.0, m=1.0, s=1.0
    )


def _thresholds(raster, x, y, default):
    """The raster reads NaN off-region; the engine substitutes Δ⊢ once."""
    values = raster.thresholds_at(x, y)
    return np.where(np.isnan(values), default, values)


class TestThresholdRaster:
    @pytest.fixture(scope="class")
    def regions(self):
        rng = np.random.default_rng(11)
        regions = []
        for k in range(40):
            x1 = float(rng.uniform(0.0, 900.0))
            y1 = float(rng.uniform(0.0, 900.0))
            w = float(rng.uniform(20.0, 200.0))
            h = float(rng.uniform(20.0, 200.0))
            regions.append(_region(x1, y1, x1 + w, y1 + h, delta=5.0 + k))
        return tuple(regions)

    def _node_with(self, regions):
        node = MobileNode(node_id=0)
        subset = RegionSubset(station_id=0, regions=regions, version=1)
        node._install(subset)
        return node

    def test_matches_node_lookup_at_random_points(self, regions):
        raster = _ThresholdRaster(regions)
        node = self._node_with(regions)
        rng = np.random.default_rng(12)
        x = rng.uniform(-50.0, 1200.0, 3000)
        y = rng.uniform(-50.0, 1200.0, 3000)
        got = _thresholds(raster, x, y, default=30.0)
        for i in range(x.size):
            assert got[i] == node.current_threshold(
                float(x[i]), float(y[i]), default=30.0
            )

    def test_half_open_edges_match_exactly(self, regions):
        """Probe every rect corner and edge midpoint: [x1, x2) semantics."""
        raster = _ThresholdRaster(regions)
        node = self._node_with(regions)
        xs, ys = [], []
        for r in regions:
            for x in (r.rect.x1, r.rect.x2, (r.rect.x1 + r.rect.x2) / 2):
                for y in (r.rect.y1, r.rect.y2, (r.rect.y1 + r.rect.y2) / 2):
                    xs.append(x)
                    ys.append(y)
        x = np.array(xs)
        y = np.array(ys)
        got = _thresholds(raster, x, y, default=30.0)
        for i in range(x.size):
            assert got[i] == node.current_threshold(
                float(x[i]), float(y[i]), default=30.0
            )

    def test_overlap_resolves_to_lowest_region_index(self):
        overlapping = (
            _region(0.0, 0.0, 10.0, 10.0, delta=7.0),
            _region(5.0, 5.0, 15.0, 15.0, delta=9.0),
        )
        raster = _ThresholdRaster(overlapping)
        node = self._node_with(overlapping)
        x = np.array([6.0, 12.0, 2.0, 20.0])
        y = np.array([6.0, 12.0, 2.0, 20.0])
        got = _thresholds(raster, x, y, default=99.0)
        assert got.tolist() == [7.0, 9.0, 7.0, 99.0]
        for i in range(x.size):
            assert got[i] == node.current_threshold(
                float(x[i]), float(y[i]), default=99.0
            )


    def test_outermost_lines_read_the_padding(self, regions):
        """Before the first / from the last raster line, and non-finite
        positions, land on the NaN border: no bounds mask, no region."""
        raster = _ThresholdRaster(regions)
        node = self._node_with(regions)
        lo_x, hi_x = raster._xs[0], raster._xs[-1]
        lo_y, hi_y = raster._ys[0], raster._ys[-1]
        x = np.array([np.nextafter(lo_x, -np.inf), hi_x, lo_x, -np.inf, np.inf, np.nan, 500.0])
        y = np.array([500.0, 500.0, np.nextafter(lo_y, -np.inf), 500.0, hi_y, 500.0, np.nan])
        values = raster.thresholds_at(x, y)
        assert np.isnan(values).all()
        finite = np.isfinite(x) & np.isfinite(y)
        for i in np.flatnonzero(finite):
            assert node.current_threshold(float(x[i]), float(y[i]), default=30.0) == 30.0
        assert raster._padded.shape == (raster._xs.size + 1, raster._ys.size + 1)
        assert np.shares_memory(raster._grid, raster._padded)

    def test_lookup_matches_thresholds_at_over_each_box(self):
        """One value, a two-comparison split, or "exact": each answer is
        what ``thresholds_at`` reads on a dense sample of the box, its
        raster lines and their ulp neighbours included."""
        rng = np.random.default_rng(14)
        plan = _grid_plan(Rect(100.0, 100.0, 900.0, 700.0), 6, rng.choice(_DELTAS, 36))
        raster = _ThresholdRaster(plan.regions)
        n = 600
        size = rng.choice([40.0, 90.0, 300.0], n)
        x1, y1 = rng.uniform(-50.0, 950.0, n), rng.uniform(-50.0, 750.0, n)
        x1[:40] = rng.choice(raster._xs, 40)  # a box edge on a raster line
        x2, y2 = x1 + size, y1 + rng.permutation(size)
        value, split = raster.lookup(x1, y1, x2, y2)
        x_line, y_line, quad = split[:, 0], split[:, 1], split[:, 2:]
        kinds = {"one": 0, "split": 0, "split-nan": 0, "exact": 0}
        for k in range(n):
            px, py = (
                np.concatenate([
                    np.linspace(lo, hi, 9),
                    *([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)]
                      for e in lines if lo <= e <= hi),
                ])
                for lo, hi, lines in ((x1[k], x2[k], raster._xs), (y1[k], y2[k], raster._ys))
            )
            px, py = (a.ravel() for a in np.meshgrid(px.clip(x1[k], x2[k]), py.clip(y1[k], y2[k])))
            truth = raster.thresholds_at(px, py)
            if value[k] == _EXACT:
                kinds["exact"] += 1
                inside = [((a < e) & (e <= b)).sum() for a, b, e in (
                    (x1[k], x2[k], raster._xs), (y1[k], y2[k], raster._ys))]
                assert max(inside) >= 2 and len({repr(v) for v in truth}) >= 2
                continue
            if value[k] == _SPLIT:
                read = quad[k, 2 * (px >= x_line[k]) + (py >= y_line[k])]
                assert len({repr(v) for v in read}) >= 2
                kinds["split-nan" if np.isnan(quad[k]).any() else "split"] += 1
            else:
                read = np.full(px.size, value[k])
                kinds["one"] += 1
            assert np.array_equal(read, truth, equal_nan=True), k
        assert min(kinds.values()) >= 20, kinds


# ----------------------------------------------------------------------
# Sparse protocol bookkeeping vs the per-node reference
# ----------------------------------------------------------------------


class _ScriptedDownlink:
    """Loses the broadcasts to the ``lost`` stations, delays those to the
    ``delayed`` ones by the given seconds, delivers the rest."""

    def __init__(self):
        self.lost: set[int] = set()
        self.delayed: dict[int, float] = {}

    def downlink_fate(self, station_id):
        from repro.faults.channel import DELAYED, DELIVER, LOST

        if station_id in self.lost:
            return LOST, 0.0
        if station_id in self.delayed:
            return DELAYED, self.delayed[station_id]
        return DELIVER, 0.0


def _grid_plan(rect, k, deltas, epoch=0):
    """A uniform ``k`` x ``k`` plan over ``rect``, Δ per region in row order."""
    w, h = rect.width / k, rect.height / k
    regions = [
        RegionStats(
            rect=Rect(rect.x1 + i * w, rect.y1 + j * h, rect.x1 + (i + 1) * w, rect.y1 + (j + 1) * h),
            n=1.0, m=1.0, s=1.0,
        )
        for i in range(k)
        for j in range(k)
    ]
    return SheddingPlan.from_regions(
        bounds=rect, regions=regions, thresholds=np.asarray(deltas), resolution=k, epoch=epoch
    )


def _one_region_plan(delta):
    return _grid_plan(BOUNDS, 1, [delta])


def _engine_pair(n, stations=None, resolution=None):
    """``(network, downlink, per-node oracle, vector engine)`` over ``BOUNDS``."""
    stations = stations or place_uniform_stations(BOUNDS, radius=1500.0)
    downlink = _ScriptedDownlink()
    network = BaseStationNetwork(stations, downlink=downlink)
    assigner = StationAssigner(stations, BOUNDS, resolution)
    obj = ObjectNodeEngine(n, network, BOUNDS)
    return network, downlink, obj, VectorNodeEngine(n, network, BOUNDS, assigner=assigner)


def _tick_pair(obj, vec, positions, active=None):
    """One tick of both engines: same Δ (and as the every-row gather),
    same protocol state."""
    want = obj.compute_thresholds(positions, active, default=30.0)
    got = vec.compute_thresholds(positions, active, default=30.0)
    assert np.array_equal(want, got)
    assert np.array_equal(got, full_gather_thresholds(vec, positions, active, 30.0))
    assert np.array_equal(obj.install_counts(), vec.install_counts())
    assert np.array_equal(obj.handoff_counts(), vec.handoff_counts())
    assert np.array_equal(obj.station_slots(), vec.station_slots())
    assert np.array_equal(obj.stored_region_counts(), vec.stored_region_counts())
    assert obj.total_handoffs == vec.total_handoffs
    return got


class TestSparseBookkeeping:
    """The vector engine touches protocol state only at nodes that moved
    station, and scans for re-broadcasts only on ticks where some
    station's version differs from the previous tick's."""

    def test_version_bump_without_movement_reinstalls(self):
        network, _, obj, vec = _engine_pair(200)
        positions = np.random.default_rng(1).uniform(0.0, 4000.0, (200, 2))
        network.install_plan(_one_region_plan(10.0))
        assert (_tick_pair(obj, vec, positions) == 10.0).all()
        # Nothing moved, nothing re-broadcast: the scan is skipped.
        assert (_tick_pair(obj, vec, positions) == 10.0).all()
        assert vec.install_counts().tolist() == [1] * 200
        # Nothing moved, every station re-broadcast: all re-install.
        network.install_plan(_one_region_plan(20.0))
        assert (_tick_pair(obj, vec, positions) == 20.0).all()
        assert vec.install_counts().tolist() == [2] * 200
        assert vec.total_handoffs == 0

    def test_lost_broadcast_clears_on_handoff_and_heals(self):
        network, downlink, obj, vec = _engine_pair(200)
        lost = network.stations[0]
        downlink.lost = {lost.station_id}
        network.install_plan(_one_region_plan(10.0))
        # Everyone starts at the far station, then walks to the one
        # whose broadcast was lost: hand-off, nothing to store, Δ⊢.
        far = network.stations[-1]
        positions = np.tile([far.center.x, far.center.y], (200, 1))
        assert (_tick_pair(obj, vec, positions) == 10.0).all()
        positions = np.tile([lost.center.x, lost.center.y], (200, 1))
        assert (_tick_pair(obj, vec, positions) == 30.0).all()
        assert (vec.stored_region_counts() == 0).all()
        assert (_tick_pair(obj, vec, positions) == 30.0).all()
        # The next broadcast gets through: installed without moving.
        downlink.lost = set()
        network.install_plan(_one_region_plan(15.0))
        assert (_tick_pair(obj, vec, positions) == 15.0).all()
        assert vec.install_counts().tolist() == [2] * 200

    def test_station_without_rows_does_not_keep_a_stale_image(self):
        """A station repaints ahead of the gather only if it serves rows
        on the tick its subset changed; one that had none then must not
        answer from what it painted before."""
        network, _, obj, vec = _engine_pair(200)
        home, away = network.stations[0], network.stations[-1]
        rng = np.random.default_rng(4)
        at_home = [home.center.x, home.center.y] + rng.uniform(-400.0, 400.0, (200, 2))
        at_away = [away.center.x, away.center.y] + rng.uniform(-400.0, 400.0, (200, 2))
        network.install_plan(_grid_plan(BOUNDS, 8, 5.0 + np.arange(64.0)))
        _tick_pair(obj, vec, at_home)
        before = _tick_pair(obj, vec, at_home)
        assert vec.last_exact_rows < 200  # home's cells are painted
        _tick_pair(obj, vec, at_away)
        network.install_plan(_grid_plan(BOUNDS, 8, 70.0 - np.arange(64.0)))
        _tick_pair(obj, vec, at_away)
        after = _tick_pair(obj, vec, at_home)
        assert (after != before).all()

    def test_rejoining_node_catches_up_after_quiet_ticks(self):
        """A node away while its station re-broadcast must re-install on
        return even though no version moved on that tick — and, the Δ
        image holding no per-node state, read the image painted while it
        was away on its first tick back."""
        network, _, obj, vec = _engine_pair(200)
        positions = np.random.default_rng(2).uniform(0.0, 4000.0, (200, 2))
        network.install_plan(_one_region_plan(10.0))
        _tick_pair(obj, vec, positions)
        active = np.ones(200, dtype=bool)
        active[:50] = False
        network.install_plan(_one_region_plan(20.0))
        _tick_pair(obj, vec, positions, active)
        _tick_pair(obj, vec, positions, active)
        got = _tick_pair(obj, vec, positions)
        assert (got == 20.0).all()
        assert vec.install_counts().tolist() == [2] * 200
        network.install_plan(_grid_plan(BOUNDS, 8, 5.0 + np.arange(64.0)))
        # Paints the image for the stations of the active rows only; the
        # 50 away still store the one-region subset.
        _tick_pair(obj, vec, positions, active)
        assert vec.stored_region_counts()[:50].tolist() == [1] * 50
        away = vec.assigner.locate(positions[:50, 0], positions[:50, 1])[1]
        assert (vec._image[away] != _EXACT).all()
        got = _tick_pair(obj, vec, positions)
        assert vec.last_exact_rows == 0 and len(set(got[:50].tolist())) > 10
        assert vec.install_counts().tolist() == [3] * 200


# ----------------------------------------------------------------------
# The Δ image is exact: vs the per-node oracle and the every-row gather
# ----------------------------------------------------------------------

#: Few distinct values, so most raster lines separate *equal* Δ.
_DELTAS = np.array([5.0, 5.0, 5.0, 12.5, 40.0])

_step = st.fixed_dictionaries({
    # None: no install this step; the current k: same geometry (a delta
    # on a fault-free network, a repaint otherwise); else new geometry.
    # (12 is finer than the resolution-1 raster: several lines per cell.)
    "k": st.sampled_from([None, None, 1, 2, 3, 5, 12]),
    "changed": st.floats(0.0, 1.0),
    "lost": st.sets(st.integers(0, 7), max_size=3),
    "delayed": st.sets(st.integers(0, 7), max_size=2),
    "churn": st.sampled_from([None, None, 0.2, 0.7]),
    # Everybody gathers at one station, so the others serve no rows.
    "herd": st.sampled_from([None, None, 0, 1, 2]),
})


def _ulps_away(values, rng, least=0):
    """Each value moved ``least``-3 representable numbers down or up."""
    out, shift = values.copy(), rng.integers(-3, 4, values.size)
    if least:
        shift = rng.integers(least, 4, values.size) * rng.choice([-1, 1], values.size)
    for step in range(1, 4):
        go = np.abs(shift) >= step
        out[go] = np.nextafter(out[go], np.sign(shift[go]) * np.inf)
    return out


class TestThresholdImage:
    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.lists(_station, min_size=1, max_size=8),
        origin=st.tuples(_lattice, _lattice),
        size=st.tuples(st.integers(1, 1600), st.integers(1, 1600)),
        resolution=st.sampled_from([None, 1, 3]),
        inset=st.tuples(st.sampled_from([0.0, 0.0, 0.3]), st.sampled_from([0.0, 0.0, 0.45])),
        faulty=st.booleans(),
        steps=st.lists(_step, min_size=2, max_size=7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_oracles_over_plan_sequences(
        self, layout, origin, size, resolution, inset, faulty, steps, seed
    ):
        """Full installs, deltas and repaints, new geometry, empty subsets,
        lost and delayed broadcasts (contested cells whose candidates hold
        different subsets), rows dropping out and coming back; positions
        on fine-cell edges, raster lines and 1-3 ulps either side of them,
        between two stations, on the bounds' edges and outside them.
        Same Δ and protocol state after every tick."""
        rng = np.random.default_rng(seed)
        stations = [
            BaseStation(station_id=3 * k + 1, center=Point(x, y), radius=r)
            for k, (x, y, r) in enumerate(layout)
        ]
        bounds = Rect(
            origin[0], origin[1], origin[0] + size[0] / 4.0, origin[1] + size[1] / 4.0
        )
        # The plan covers part of the space: positions beside it read Δ⊢
        # and stations away from it are broadcast an empty subset.
        plan_rect = Rect(
            bounds.x1 + inset[0] * bounds.width, bounds.y1,
            bounds.x2, bounds.y2 - inset[1] * bounds.height,
        )
        downlink = _ScriptedDownlink() if faulty else None
        network = BaseStationNetwork(stations, downlink=downlink)
        n = 48
        obj = ObjectNodeEngine(n, network, bounds)
        vec = VectorNodeEngine(
            n, network, bounds, assigner=StationAssigner(stations, bounds, resolution)
        )
        fine = vec.assigner.fine_resolution
        lines_x = np.concatenate([
            np.linspace(bounds.x1, bounds.x2, fine + 1),
            *(np.linspace(plan_rect.x1, plan_rect.x2, k + 1) for k in (2, 3, 5, 12)),
        ])
        lines_y = np.concatenate([
            np.linspace(bounds.y1, bounds.y2, fine + 1),
            *(np.linspace(plan_rect.y1, plan_rect.y2, k + 1) for k in (2, 3, 5, 12)),
        ])
        centers = np.array([[s.center.x, s.center.y] for s in stations])
        positions = np.column_stack([
            rng.uniform(bounds.x1, bounds.x2, n), rng.uniform(bounds.y1, bounds.y2, n)
        ])
        plan, deltas = None, None
        for tick, step in enumerate(steps):
            t = 10.0 * tick
            if downlink is not None:
                ids = [s.station_id for s in stations]
                downlink.lost = {ids[k % len(ids)] for k in step["lost"]}
                downlink.delayed = {ids[k % len(ids)]: 15.0 for k in step["delayed"]}
            k = step["k"]
            if k is not None:
                if plan is not None and len(plan.regions) == k * k:
                    flip = rng.uniform(size=k * k) < step["changed"]
                    deltas = np.where(flip, rng.choice(_DELTAS, k * k), deltas)
                else:
                    deltas = rng.choice(_DELTAS, k * k)
                previous, plan = plan, _grid_plan(plan_rect, k, deltas, epoch=tick)
                network.install_plan(
                    plan, t=t, delta=previous.diff(plan) if previous is not None else None
                )
            network.deliver_pending(t)
            # Each row stays put, or moves inside, on to a line, a corner
            # of two lines, an edge of the bounds, or outside the bounds.
            inside = np.column_stack([
                rng.uniform(bounds.x1, bounds.x2, n), rng.uniform(bounds.y1, bounds.y2, n)
            ])
            on_x, on_y = rng.choice(lines_x, n), rng.choice(lines_y, n)
            by_x, by_y = _ulps_away(on_x, rng), _ulps_away(on_y, rng)
            pair = rng.integers(0, len(stations), (2, n))
            kinds = [
                positions,
                inside,
                np.column_stack([on_x, inside[:, 1]]),
                np.column_stack([inside[:, 0], on_y]),
                np.column_stack([on_x, on_y]),
                np.column_stack([by_x, inside[:, 1]]),
                np.column_stack([inside[:, 0], by_y]),
                np.column_stack([by_x, by_y]),
                centers[pair].mean(axis=0) + rng.normal(0.0, bounds.width / fine, (n, 2)),
                np.column_stack([rng.choice([bounds.x1, bounds.x2], n), inside[:, 1]]),
                np.column_stack([inside[:, 0], rng.choice([bounds.y1, bounds.y2], n)]),
                inside + rng.choice([-1.0, 1.0], (n, 2)) * [bounds.width, bounds.height],
            ]
            positions = np.stack(kinds)[rng.integers(0, len(kinds), n), np.arange(n)]
            if step["herd"] is not None:
                center = stations[step["herd"] % len(stations)].center
                positions = [center.x, center.y] + rng.uniform(-1.0, 1.0, (n, 2))
            active = None if step["churn"] is None else rng.uniform(size=n) >= step["churn"]

            want = obj.compute_thresholds(positions, active, default=30.0)
            got = vec.compute_thresholds(positions, active, default=30.0)
            assert np.array_equal(got, want)
            assert np.array_equal(got, full_gather_thresholds(vec, positions, active, 30.0))
            assert np.array_equal(vec._handoffs, obj.handoff_counts())
            assert np.array_equal(vec._installs, obj.install_counts())
            assert vec._installed_version.tolist() == [
                -1 if node.subset is None else node.subset.version for node in obj.nodes
            ]
            assert vec.total_handoffs == obj.total_handoffs

    def test_split_rows_read_their_side_of_the_lines(self):
        """Rows exactly on a split entry's lines, 1-3 ulps either side of
        them and at their crossing, all 49 Δ distinct: the two comparisons
        are the half-open region edges."""
        stations = place_uniform_stations(BOUNDS, radius=1500.0)
        network = BaseStationNetwork(stations)
        network.install_plan(_grid_plan(BOUNDS, 7, 5.0 + np.arange(49.0)))
        rng = np.random.default_rng(31)
        scout = VectorNodeEngine(4000, network, BOUNDS)
        scout.compute_thresholds(rng.uniform(0.0, 4000.0, (4000, 2)), None, 30.0)
        on = []  # per split entry: on its line(s), mid-cell where it has none
        for slot in range(len(stations)):
            entries, x1, y1, x2, y2 = scout.assigner.slot_entries(slot)
            split = scout._image[entries] == _SPLIT
            x_line, y_line = scout._split[entries[split], :2].T
            on.append(np.column_stack([
                np.where(np.isfinite(x_line), x_line, (x1 + x2)[split] / 2.0),
                np.where(np.isfinite(y_line), y_line, (y1 + y2)[split] / 2.0),
            ]))
        on = np.concatenate(on)
        assert len(on) > 300
        positions = np.concatenate([
            on,
            np.column_stack([_ulps_away(on[:, 0], rng), on[:, 1]]),
            np.column_stack([on[:, 0], _ulps_away(on[:, 1], rng)]),
            np.column_stack([_ulps_away(on[:, 0], rng), _ulps_away(on[:, 1], rng)]),
        ])
        positions = positions[
            (positions >= 0.0).all(axis=1) & (positions <= 4000.0).all(axis=1)
        ]
        n = len(positions)
        obj = ObjectNodeEngine(n, network, BOUNDS)
        vec = VectorNodeEngine(n, network, BOUNDS, assigner=scout.assigner)
        _tick_pair(obj, vec, positions)  # paints
        got = _tick_pair(obj, vec, positions)
        assert vec.last_exact_rows == 0
        _, entries = vec.assigner.locate(positions[:, 0], positions[:, 1])
        on_split = vec._image[entries] == _SPLIT
        assert on_split.mean() > 0.5
        on_a_line = (positions == vec._split[entries, :2]).any(axis=1)
        assert (on_split & on_a_line).sum() > 300
        assert len(set(got[on_split].tolist())) == 49

    def test_plan_finer_than_the_raster_stays_exact(self):
        """Several raster lines of one axis inside a fine cell: no entry is
        a value or a split, and the fallback still matches the oracles."""
        n = 600
        network, _, obj, vec = _engine_pair(n, resolution=1)
        assert vec.assigner.fine_resolution == 5
        network.install_plan(_grid_plan(BOUNDS, 16, 5.0 + np.arange(256.0)))
        positions = np.random.default_rng(32).uniform(0.0, 4000.0, (n, 2))
        _tick_pair(obj, vec, positions)
        _tick_pair(obj, vec, positions)
        assert (vec._image == _EXACT).all()
        assert vec.last_exact_rows == n

    def test_contested_cell_layers_follow_their_own_station(self):
        """Two candidates of one cell hold different subsets (one lost a
        broadcast): each row reads its own winner's layer; and a station
        whose subset changes while it serves no rows loses every layer."""
        stations = [
            BaseStation(station_id=4, center=Point(1030.0, 2000.0), radius=1500.0),
            BaseStation(station_id=9, center=Point(3030.0, 2000.0), radius=1500.0),
        ]  # equidistant at x = 2030, inside the fine cells of [2000, 2100)
        n = 900
        network, downlink, obj, vec = _engine_pair(n, stations)
        rng = np.random.default_rng(33)
        band = np.column_stack([rng.uniform(1950.0, 2150.0, n), rng.uniform(0.0, 4000.0, n)])
        west = np.column_stack([rng.uniform(0.0, 600.0, n), rng.uniform(0.0, 4000.0, n)])
        network.install_plan(_grid_plan(BOUNDS, 3, 5.0 + np.arange(9.0)))
        _tick_pair(obj, vec, band)
        downlink.lost = {9}
        network.install_plan(_grid_plan(BOUNDS, 3, 40.0 + np.arange(9.0)))
        _tick_pair(obj, vec, band)
        got = _tick_pair(obj, vec, band)
        assert vec.last_exact_rows == 0
        slots = vec._station_slot
        assert (got[slots == 0] >= 40.0).all() and (got[slots == 1] < 40.0).all()
        cells = vec.assigner.cells_of(band[:, 0], band[:, 1])
        shared = np.intersect1d(cells[slots == 0], cells[slots == 1])
        assert shared.size > 20  # cells with rows of both winners
        first, second = vec._image[vec.assigner._entries[:2, shared]]
        assert (first >= 40.0).sum() > 20 and (second[first >= 40.0] < 40.0).all()
        # Station 9 serves nobody while its subset changes; back in the
        # band, its rows (its layer of the shared cells) read the new one.
        downlink.lost = set()
        _tick_pair(obj, vec, west)
        network.install_plan(_grid_plan(BOUNDS, 3, 80.0 + np.arange(9.0)))
        _tick_pair(obj, vec, west)
        assert (_tick_pair(obj, vec, band) >= 80.0).all()

    def _uniform_scene(self):
        """20 000 uniform nodes, 49 stations, a 250-region plan, painted."""
        bounds = Rect(0.0, 0.0, 14_000.0, 14_000.0)
        rng = np.random.default_rng(21)
        n = 20_000
        positions = rng.uniform(0.0, 14_000.0, (n, 2))
        velocities = rng.normal(0.0, 12.0, (n, 2))
        system = LiraSystem(
            bounds=bounds,
            n_nodes=n,
            queries=[],
            reduction=AnalyticReduction(5.0, 100.0),
            config=LiraConfig(l=250, alpha=128),
            station_radius=1500.0,
            adaptive_throttle=False,
        )
        assert len(system.network.stations) == 49
        system.shedder.set_throttle_fraction(0.5)
        system.bootstrap(positions, velocities)
        system.adapt(positions, np.hypot(velocities[:, 0], velocities[:, 1]))
        assert len(system.shards[0].plan.regions) == 250
        system.tick(0.0, positions, velocities, 1.0)  # paints
        return system, positions, velocities

    def test_most_rows_are_answered_from_the_image(self):
        """Counted gate: on a uniform 20 000-node scene under a 250-region
        plan, at least 0.97 of the rows take Δ from the image, every tick."""
        system, positions, velocities = self._uniform_scene()
        n = system.n_nodes
        shares = []
        for tick in range(1, 11):
            positions = np.clip(positions + velocities, 0.0, 14_000.0)
            system.tick(float(tick), positions, velocities, 1.0)
            shares.append(1.0 - system.node_engine.last_exact_rows / n)
        assert min(shares) >= 0.97, shares

    def test_install_tick_stays_on_the_image(self):
        """Counted gate: the tick that follows an ``adapt()`` repaints the
        changed stations that serve rows *before* the gather, so it sends
        at most 0.03 of the rows to the exact path like any other tick."""
        system, positions, velocities = self._uniform_scene()
        for tick in range(1, 6):
            positions = np.clip(positions + velocities, 0.0, 14_000.0)
            system.tick(float(tick), positions, velocities, 1.0)
        version = system.network.version
        system.adapt(positions, np.hypot(velocities[:, 0], velocities[:, 1]))
        assert system.network.version > version  # something was installed
        positions = np.clip(positions + velocities, 0.0, 14_000.0)
        system.tick(6.0, positions, velocities, 1.0)
        assert system.node_engine.last_exact_rows <= 0.03 * system.n_nodes


# ----------------------------------------------------------------------
# Full-system equivalence at matched seeds
# ----------------------------------------------------------------------


_LOSSY = FaultSpec(
    uplink_loss=0.2,
    uplink_delay=0.15,
    uplink_reorder=0.3,
    downlink_loss=0.3,
    slowdown_prob=0.2,
    slowdown_duration=20.0,
)
_CHURN = FaultSpec(churn_leave=0.03, churn_rejoin=0.1)

_FAULT_CASES = {
    "no-faults": None,
    "null-spec": FaultSpec(),
    "lossy": _LOSSY,
    "churn": _CHURN,
}


class TestEngineEquivalence:
    @pytest.mark.parametrize("policy", ["lira", "random-drop"])
    @pytest.mark.parametrize("case", sorted(_FAULT_CASES))
    def test_vector_engine_bit_identical_to_object(
        self, small_trace, small_queries, policy, case
    ):
        spec = _FAULT_CASES[case]
        obj, sent_obj = run_deployment(
            ReferenceLiraSystem, small_trace, small_queries, spec=spec, policy=policy
        )
        vec, sent_vec = run_deployment(
            LiraSystem, small_trace, small_queries, spec=spec, policy=policy
        )
        # Per-tick admitted-report counts.
        assert sent_obj == sent_vec
        # Believed positions for the whole fleet (NaN where unknown).
        t = (small_trace.num_ticks - 1) * small_trace.dt
        assert np.array_equal(
            obj.server.table.predict(t),
            vec.server.table.predict(t),
            equal_nan=True,
        )
        # Every SystemStats field, including fault-layer bookkeeping.
        assert _stats_fields(obj.stats()) == _stats_fields(vec.stats())
        # Per-node protocol state.
        assert np.array_equal(
            obj.node_engine.handoff_counts(), vec.node_engine.handoff_counts()
        )
        assert np.array_equal(
            obj.node_engine.install_counts(), vec.node_engine.install_counts()
        )
        assert np.array_equal(
            obj.node_engine.station_slots(), vec.node_engine.station_slots()
        )
        # Query answers computed from the believed state.
        for res_obj, res_vec in zip(
            obj.evaluate_queries(t), vec.evaluate_queries(t)
        ):
            assert np.array_equal(res_obj, res_vec)
        # The last plan installed, the thresholds the fleet ran the last
        # tick on, and the whole report archive.
        plan_obj, plan_vec = obj.plans[-1], vec.shards[0].plan
        assert [(r.rect, r.delta, r.n, r.m, r.s) for r in plan_obj.regions] == [
            (r.rect, r.delta, r.n, r.m, r.s) for r in plan_vec.regions
        ]
        assert np.array_equal(obj.fleet.thresholds, vec.fleet.thresholds)
        size = obj.history.total_reports
        assert size == vec.history.total_reports
        for name in ("_times", "_ids", "_positions", "_velocities"):
            assert np.array_equal(
                getattr(obj.history, name)[:size], getattr(vec.history, name)[:size]
            )

    def test_stored_region_counts_agree_without_churn(
        self, small_trace, small_queries
    ):
        obj, _ = run_deployment(ReferenceLiraSystem, small_trace, small_queries)
        vec, _ = run_deployment(LiraSystem, small_trace, small_queries)
        assert np.array_equal(
            obj.node_engine.stored_region_counts(),
            vec.node_engine.stored_region_counts(),
        )

    def test_total_handoffs_matches_per_node_sum(
        self, small_trace, small_queries
    ):
        """The O(1) monotonic counter equals the O(N) reduction it replaced."""
        for system_cls in (LiraSystem, ReferenceLiraSystem):
            system, _ = run_deployment(system_cls, small_trace, small_queries)
            assert system.node_engine.total_handoffs == int(
                system.node_engine.handoff_counts().sum()
            )
            assert system.stats().handoffs == system.node_engine.total_handoffs

    def test_unknown_engine_rejected(self, small_trace, small_queries):
        """There is one engine: the switch is not an argument any more."""
        with pytest.raises(TypeError, match="engine"):
            LiraSystem(
                bounds=small_trace.bounds,
                n_nodes=small_trace.num_nodes,
                queries=small_queries,
                reduction=AnalyticReduction(5.0, 100.0),
                config=LiraConfig(l=13, alpha=32),
                engine="quantum",
            )


class TestStatsUnderChurn:
    """SystemStats parity with the oracle under a fault-injected churn run."""

    @pytest.fixture(scope="class")
    def churn_pair(self, small_trace, small_queries):
        obj, _ = run_deployment(
            ReferenceLiraSystem, small_trace, small_queries, spec=_CHURN, seed=21
        )
        vec, _ = run_deployment(LiraSystem, small_trace, small_queries, spec=_CHURN, seed=21)
        return obj, vec

    def test_active_node_accounting(self, churn_pair, small_trace):
        obj, vec = churn_pair
        so, sv = obj.stats(), vec.stats()
        assert so.active_nodes == sv.active_nodes
        assert so.active_nodes < small_trace.num_nodes

    def test_handoff_and_staleness_counters(self, churn_pair):
        obj, vec = churn_pair
        so, sv = obj.stats(), vec.stats()
        assert so.handoffs == sv.handoffs
        assert so.mean_plan_staleness == sv.mean_plan_staleness
        assert so.stale_station_fraction == sv.stale_station_fraction
        assert so.updates_discarded == sv.updates_discarded

    def test_departed_nodes_send_nothing(self, churn_pair):
        obj, vec = churn_pair
        assert np.array_equal(obj.faults.active_mask, vec.faults.active_mask)
        t = obj.current_time
        believed_obj = obj.server.table.predict(t)
        believed_vec = vec.server.table.predict(t)
        assert np.array_equal(believed_obj, believed_vec, equal_nan=True)


# ----------------------------------------------------------------------
# ArrayBoundedQueue vs BoundedQueue
# ----------------------------------------------------------------------


def _batches(rng, n_batches):
    for _ in range(n_batches):
        n = int(rng.integers(0, 40))
        ids = rng.integers(0, 1000, n)
        times = rng.uniform(0.0, 100.0, n)
        pos = rng.uniform(0.0, 4000.0, (n, 2))
        vel = rng.uniform(-30.0, 30.0, (n, 2))
        yield times, ids, pos, vel


class TestArrayBoundedQueue:
    def test_fifo_and_counters_match_scalar_queue(self):
        rng = np.random.default_rng(5)
        scalar = BoundedQueue(capacity=64)
        batched = ArrayBoundedQueue(capacity=64)
        rng2 = np.random.default_rng(5)
        for (times, ids, pos, vel), _ in zip(
            _batches(rng, 30), range(30)
        ):
            accepted = batched.offer_arrays(times, ids, pos, vel)
            scalar_accepted = 0
            for k in range(ids.size):
                msg = UpdateMessage(
                    time=float(times[k]),
                    node_id=int(ids[k]),
                    x=float(pos[k, 0]),
                    y=float(pos[k, 1]),
                    vx=float(vel[k, 0]),
                    vy=float(vel[k, 1]),
                )
                if scalar.offer(msg):
                    scalar_accepted += 1
            assert accepted == scalar_accepted
            assert len(batched) == len(scalar)
            # Drain a random amount from both, comparing payloads.
            drain = int(rng2.integers(0, 50))
            times_b, ids_b, pos_b, vel_b = batched.poll_arrays(drain)
            polled = scalar.poll_batch(drain)
            assert ids_b.size == len(polled)
            for k, msg in enumerate(polled):
                assert ids_b[k] == msg.node_id
                assert times_b[k] == msg.time
                assert pos_b[k, 0] == msg.x
                assert pos_b[k, 1] == msg.y
                assert vel_b[k, 0] == msg.vx
                assert vel_b[k, 1] == msg.vy
        assert batched.lifetime_enqueued == scalar.lifetime_enqueued
        assert batched.lifetime_dropped == scalar.lifetime_dropped
        assert batched.lifetime_dequeued == scalar.lifetime_dequeued
        assert batched.drop_rate() == scalar.drop_rate()

    def test_empty_poll_shapes(self):
        q = ArrayBoundedQueue(capacity=4)
        times, ids, pos, vel = q.poll_arrays(10)
        assert times.shape == (0,)
        assert ids.shape == (0,)
        assert pos.shape == (0, 2)
        assert vel.shape == (0, 2)


# ----------------------------------------------------------------------
# StatisticsGrid.ingest_updates vs a scalar per-update loop
# ----------------------------------------------------------------------


class TestBatchedGridIngest:
    def test_matches_scalar_ingest(self, small_grid):
        import copy

        rng = np.random.default_rng(13)
        xs = rng.uniform(-100.0, 4100.0, 500)  # includes out-of-bounds
        ys = rng.uniform(-100.0, 4100.0, 500)
        speeds = rng.uniform(0.0, 40.0, 500)
        a = copy.deepcopy(small_grid)
        b = copy.deepcopy(small_grid)
        x1, y1, last = a.bounds.x1, a.bounds.y1, a.alpha - 1
        for k in range(xs.size):  # the scalar oracle: one update at a time
            i = min(max(int((float(xs[k]) - x1) / a._cell_w), 0), last)
            j = min(max(int((float(ys[k]) - y1) / a._cell_h), 0), last)
            a._acc_count[i, j] += 1.0
            a._acc_speed[i, j] += float(speeds[k])
            a._acc_updates += 1
        b.ingest_updates(xs, ys, speeds)
        assert np.array_equal(a._acc_count, b._acc_count)
        assert np.array_equal(a._acc_speed, b._acc_speed)
        assert a._acc_updates == b._acc_updates
