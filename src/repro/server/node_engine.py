"""The node side of the systems loop, as struct-of-arrays state.

Every sampling period the tick must answer two questions for the whole
population: *which base station serves each node?* (hand-off + subset
download bookkeeping) and *which update throttler Δ applies at each
node's position?*  :class:`VectorNodeEngine` keeps node state in flat
arrays (current station slot, installed subset version, hand-off /
install counters) and answers both with two batched lookups per tick:

1. **station assignment** via a precomputed two-level *candidate
   raster* over the monitoring bounds: each raster cell stores the
   small set of stations that could possibly serve any point inside
   it, most cells exactly one, and a contested cell the winner proved on
   each side of its boundary lines, so only nodes within a guard band of
   a boundary pay an exact first-minimum over a handful of gathered
   candidates — nobody scans every station;
2. **threshold lookup** via a *Δ image* on the same raster, one entry
   per (cell, candidate station): Δ is a property of a region, so an
   entry whose every point reads one Δ from that station's subset holds
   that Δ, and one that a single Δ step per axis crosses holds the two
   lines and the four values round them — one gather, or three and two
   comparisons.  Only a cell that several raster lines of one axis
   cross falls back to the per-station *threshold rasters*: the subset
   is rasterized onto the irregular grid spanned by its region edges
   (every rect boundary is a raster line exactly), nodes are grouped by
   station with one radix sort, and ``current_threshold`` for a
   station's nodes is two ``searchsorted`` calls + one mask-free gather.

The per-node reference (one ``MobileNode`` object per node scanning the
station list and probing a 5×5 grid index, ``tests/oracles/system.py``)
produces bit-identical thresholds and counters: ties in station
assignment resolve to the first station in list order (the ``min()``
the per-node path uses), overlapping regions resolve to the lowest
region index (its bucket-scan order), and points outside every stored
region — or on a stale/lost subset — fall back to the conservative
default Δ⊢ exactly where the per-node path does.
"""

from __future__ import annotations

import itertools
from typing import Protocol

import numpy as np

from repro.core.plan import SheddingRegion
from repro.geo import Rect
from repro.server.base_station import BaseStation
from repro.server.protocol import RegionSubset


class SubsetProvider(Protocol):
    """What the vector engine needs from the plan-dissemination layer.

    :class:`~repro.server.protocol.BaseStationNetwork` satisfies it
    directly; a partitioned deployment satisfies it with a directory
    view merging the per-shard networks, so one engine can serve nodes
    attached to stations owned by any shard.
    """

    stations: list[BaseStation]

    def subset_or_none(self, station_id: int) -> RegionSubset | None: ...


#: Safety inflation applied to the candidate-pruning bounds so that
#: last-ulp rounding in the precomputed cell distances can only *grow*
#: a cell's candidate set, never drop the true winner from it.
_PRUNE_EPS = 1e-9

#: Fine candidate-raster cells per coarse cell and axis.
_REFINE = 5

#: Δ-image entries that are not a value: "look it up exactly", and "one
#: raster line per axis crosses this cell: two comparisons pick the value".
#: Negative, so no Δ and no NaN ("no region") is mistaken for either.
_EXACT = -1.0
_SPLIT = -2.0

#: Half-width of the guard band round a contested cell's split lines, in
#: pruning ε: a row closer than that to a line is left to the resolve.
_BAND = 4.0

#: Margin by which a split's winner must beat every other candidate, in
#: units of the squared distances at play (both farthest corners plus the
#: cell's diagonal): twenty times a crude bound, ≈ 400 · 2**-53, on the
#: rounding of its evaluation and of the two ``hypot`` distances it orders.
_MARGIN = 2.0**-40


class StationAssigner:
    """Batched station assignment over a precomputed candidate raster.

    Replicates ``BaseStationNetwork.station_for`` for arrays of
    positions: the nearest *covering* station wins; positions covered by
    no station fall back to the nearest station overall; distance ties
    resolve to the earliest station in list order (candidates are kept
    in list order and the resolve picks the first minimum, matching the
    per-node path's ``min()``; distances are ``np.hypot``'s, and
    ``station_for``'s ``math.hypot`` can round a near-tie within an ulp
    the other way).

    The raster stores, per cell, every station that could be the winner
    for *some* point in the cell (see :meth:`_prune`).  It is built in
    two levels: a coarse pass prunes every station against every coarse
    cell, and each contested coarse cell is split ``_REFINE`` x
    ``_REFINE`` and pruned again against its own few candidates only.
    Most positions then fall in a fine cell with a single candidate and
    need no distance computation at all, most of the rest read the
    winner proved for their side of their cell (:meth:`_build_split`),
    and only the few left pay the exact resolve.  Positions outside the
    raster bounds (rare; traces are generated inside them) are resolved
    against the full station list, so the assignment is exact
    everywhere.
    """

    def __init__(
        self,
        stations: list[BaseStation],
        bounds: Rect,
        resolution: int | None = None,
    ) -> None:
        if not stations:
            raise ValueError("at least one base station is required")
        self.stations = stations
        self.bounds = bounds
        # One sentinel past the real stations, infinitely far away and
        # covering nothing: the -1 padding of a candidate column indexes
        # it, so the resolve needs no validity mask.
        self._cx = np.array([s.center.x for s in stations] + [np.inf])
        self._cy = np.array([s.center.y for s in stations] + [0.0])
        self._radius = np.array([s.radius for s in stations] + [-1.0])
        #: Contested rows of the last :meth:`locate` the split left to the
        #: resolve, every one of which pays ``np.hypot``.
        self.last_hypot_rows = 0
        self.station_ids = np.array(
            [s.station_id for s in stations], dtype=np.int64
        )
        extent = [1.0, bounds.x1, bounds.y1, bounds.x2, bounds.y2]
        self._eps = _PRUNE_EPS * float(
            np.abs(np.concatenate((extent, self._cx[:-1], self._cy, self._radius))).max()
        )
        self._band = _BAND * self._eps
        if resolution is None:
            resolution = int(np.clip(4 * np.ceil(np.sqrt(len(stations))), 8, 128))
        #: Coarse cells per axis; the lookup raster is ``_REFINE`` x finer.
        self.resolution = resolution
        self.fine_resolution = resolution * _REFINE
        self._cell_w = bounds.width / self.fine_resolution or 1.0
        self._cell_h = bounds.height / self.fine_resolution or 1.0
        self._candidates = self._build_raster()
        #: Candidates per fine cell, and the lone one (-1 where contested).
        #: One extra last entry is what cell -1, out of bounds, reads:
        #: 0 candidates, i.e. "ask every station".
        self._n_candidates = np.append((self._candidates >= 0).sum(axis=0), 0)
        self._single = np.where(
            self._n_candidates == 1, np.append(self._candidates[0], -1), -1
        )
        #: Δ-image entry of each (candidate row, fine cell) pair that
        #: exists, numbered row-major — every cell has a first candidate,
        #: so row 0's entry is the cell itself — and -1, the image's spare
        #: last entry, which cell -1 reads too, for the padding.
        exists = self._candidates >= 0
        self._entries = np.where(exists, np.cumsum(exists).reshape(exists.shape) - 1, -1)
        self.n_entries = int(exists.sum())
        self._slot_entries: dict[int, tuple[np.ndarray, ...]] = {}
        #: The per-cell split (:meth:`_build_split`): each cell's boundary
        #: lines, and per (cell, side) the proved winner's slot and entry;
        #: -1 unproved, as in the spare last row that cell -1 reads.
        size = self.fine_resolution**2
        self._x_line, self._y_line = np.full((2, size + 1), np.nan)
        self._split_slot, self._split_entry = np.full((2, size + 1, 4), -1, dtype=np.int32)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(2, len(self._candidates) + 1):
                cells = np.flatnonzero(self._n_candidates[:-1] == k)
                if cells.size:
                    self._build_split(cells, self._candidates[:k, cells])

    def _boxes(self, i: np.ndarray, j: np.ndarray, span: int) -> tuple[np.ndarray, ...]:
        """``(x1, y1, x2, y2)`` of the squares of ``span`` fine cells whose
        lower corners are fine cells ``(i, j)``."""
        x1 = self.bounds.x1 + i * self._cell_w
        y1 = self.bounds.y1 + j * self._cell_h
        return x1, y1, x1 + span * self._cell_w, y1 + span * self._cell_h

    def _prune(
        self, i: np.ndarray, j: np.ndarray, span: int, cand: np.ndarray
    ) -> np.ndarray:
        """Per-cell candidate columns (list order, -1 padded) out of ``cand``.

        Cell ``k`` is the closed square of ``span`` fine cells whose
        lower corner is fine cell ``(i[k], j[k])``; column ``k`` of
        ``cand`` already holds every possible winner for it.  With
        ``d_min``/``d_max`` the distances from a station to the nearest
        /farthest point of the cell, a winner ``w`` at ``p`` satisfies:

        * ``w`` covers ``p``, so ``d_min(w) <= radius(w)``; or nobody
          covers ``p`` and ``w`` is nearest overall, so ``d_min(w) <=
          d(w, p) <= d(s, p) <= d_max(s)`` for every station ``s``;
        * *full-cover bound*: if some station ``f`` covers the whole
          cell (``d_max(f) <= radius(f)``), every ``p`` is covered, the
          winner is the nearest covering station, and ``d_min(w) <=
          d(w, p) <= d(f, p) <= d_max(f)`` — which drops the stations
          whose disk merely overlaps a cell that a nearer one owns.

        Both hold for any subset of stations that contains all winners,
        which is what makes the second level exact.  Comparisons are on
        squared distances, inflated by ``_PRUNE_EPS`` so rounding can
        only grow a column.
        """
        x1, y1, x2, y2 = self._boxes(i, j, span)
        cx, cy, radius = self._cx[cand], self._cy[cand], self._radius[cand]
        near_x = np.maximum(np.maximum(x1 - cx, cx - x2), 0.0)
        near_y = np.maximum(np.maximum(y1 - cy, cy - y2), 0.0)
        d_min = near_x * near_x + near_y * near_y
        far_x = np.maximum(cx - x1, x2 - cx)
        far_y = np.maximum(cy - y1, y2 - cy)
        d_max = far_x * far_x + far_y * far_y
        eps = self._eps
        covering = d_min <= (radius + eps) ** 2
        full = d_max <= np.maximum(radius - eps, 0.0) ** 2
        full_bound = np.where(full, d_max, np.inf).min(axis=0)
        covered = full_bound < np.inf
        bound = np.where(covered, full_bound, d_max.min(axis=0))
        near = d_min <= (np.sqrt(bound) + eps) ** 2
        keep = np.where(covered, covering & near, covering | near)
        # Left-pack the kept slots of each cell, in list order.
        position = np.cumsum(keep, axis=0)
        rows = np.full((int(position[-1].max(initial=1)), i.size), -1, dtype=np.int64)
        at, cell = np.nonzero(keep)
        rows[position[at, cell] - 1, cell] = np.broadcast_to(cand, keep.shape)[at, cell]
        return rows

    def _build_raster(self) -> np.ndarray:
        res, f = self.resolution, _REFINE
        i, j = np.divmod(np.arange(res * res), res)
        everyone = np.arange(len(self.stations))[:, None]
        coarse = self._prune(i * f, j * f, f, everyone)
        contested = np.flatnonzero((coarse >= 0).sum(axis=0) > 1)
        a, c = np.divmod(np.arange(f * f), f)
        fi = (i[contested, None] * f + a).ravel()
        fj = (j[contested, None] * f + c).ravel()
        refined = self._prune(fi, fj, 1, coarse[:, contested].repeat(f * f, axis=1))
        table = np.full((len(refined), res * f, res * f), -1, dtype=np.int64)
        table[0] = coarse[0].reshape(res, res).repeat(f, axis=0).repeat(f, axis=1)
        table[:, fi, fj] = refined
        return table.reshape(len(refined), -1)

    def _build_split(self, cells: np.ndarray, cand: np.ndarray) -> None:
        """Prove, once, the winner on each side of the boundary lines of
        contested ``cells`` (``cand``: their candidates, one count).

        A cell's lines are the bisectors of its candidate pairs that are
        axis-parallel (equal radius, one shared centre coordinate) and
        cross the ε-grown cell: ``-inf`` is "none on this axis" (every
        point is on the ``>=`` side), NaN on both axes "two differ, no
        split".  Side ``2 * (x >= x_line) + (y >= y_line)`` owns the
        ε-grown cell clipped to that side at half the band, and its
        winner ``w`` (the nearest farthest corner) is proved only when
        ``w`` covers all of it and, for every other candidate ``o``,
        ``|p - o|² - |p - w|²`` exceeds the ``_MARGIN`` at the corner that
        minimises it: there ``w`` is ``hypot``'s first minimum bit for
        bit.  Every position :meth:`cells_of` maps to a cell lies within
        ε of it, so a row farther than the band from both lines is in its
        side's sub-box (DESIGN.md §5).  Arrays are (axis, ...), relative
        to each cell's lower corner so large coordinates do not cancel.
        """
        n, eps, half = cells.size, self._eps, self._band / 2
        i, j = np.divmod(cells, self.fine_resolution)
        low = np.stack([self.bounds.x1 + i * self._cell_w, self.bounds.y1 + j * self._cell_h])
        side_len = np.array([[self._cell_w], [self._cell_h]])
        o = np.stack([self._cx[cand], self._cy[cand]]) - low[:, None]
        a, b = np.array(list(itertools.combinations(range(len(cand)), 2))).T
        apart = o[:, a] != o[:, b]
        crossing = (self._radius[cand[a]] == self._radius[cand[b]]) & apart & ~apart[::-1]
        mid = (o[:, a] + o[:, b]) / 2
        crossing &= np.abs(mid - side_len[:, None] / 2) <= side_len[:, None] / 2 + eps
        first = np.where(crossing, mid, np.inf).min(axis=1)
        last = np.where(crossing, mid, -np.inf).max(axis=1)
        # One line, none (-inf), or two that differ (NaN, on both axes).
        lines = np.where(first >= last, last, np.nan)
        lines[:, np.isnan(lines).any(axis=0)] = np.nan
        self._x_line[cells], self._y_line[cells] = lines + low
        # (axis, below the line / on or above it, cell) ranges; a side whose
        # sub-box is empty is out of reach and stays unproved.  (A line
        # lies within ε of the cell, so half the band clears the far edge.)
        lo, hi = np.full((2, 2, n), -eps), np.empty((2, 2, n))
        np.maximum(-eps, lines + half, out=lo[:, 1])
        np.subtract(lines, half, out=hi[:, 0])
        hi[:, 1] = side_len + eps
        reach = lo <= hi
        side, task = np.nonzero((reach[0][:, None] & reach[1][None]).reshape(4, n))
        pick = np.stack([side >> 1, (side & 1) + 2]) * n + task
        lo, hi = np.take(lo, pick)[:, None], np.take(hi, pick)[:, None]
        # (axis, candidate, task) from here on.  A winner is nearer than any
        # other candidate at every point, so it has the smallest farthest
        # corner: the only candidate worth proving.
        o = np.take(o, task, axis=2)
        far = (np.maximum(o - lo, hi - o) ** 2).sum(axis=0)
        far_w, win = far.min(axis=0), np.zeros(task.size, dtype=np.intp)
        for row in range(len(cand) - 1, 0, -1):
            win[far[row] == far_w] = row
        at = win * task.size + np.arange(task.size)
        # ``|p - o|² - |p - w|²`` is separable and linear per axis, each
        # term ``g * (2u - w - o)`` with ``g = w - o``: its minimum over a
        # range is its value at the centre less ``|g|`` times the width.
        w = np.take(o.reshape(2, -1), at, axis=1)[:, None]
        g = w - o
        gain = (g * ((lo + hi - w) - o) - np.abs(g) * (hi - lo)).sum(axis=0)
        scale = far_w + np.square(side_len + eps).sum()
        beaten = gain > _MARGIN * (far + scale)
        beaten.ravel()[at] = True
        at = win * self._entries.shape[1] + cells[task]
        winner = np.take(self._candidates, at)
        cover = np.maximum(self._radius[winner] - eps, 0.0)
        proved = beaten.all(axis=0) & (far_w < cover * cover)
        flat = cells[task] * 4 + side
        self._split_slot.ravel()[flat] = np.where(proved, winner, -1)
        self._split_entry.ravel()[flat] = np.where(proved, np.take(self._entries, at), -1)

    def cells_of(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Flat fine-raster cell of each (in-bounds) position, in float and
        in place: an in-bounds quotient is >= 0, so ``trunc`` of it clamped
        to ``last`` is the clamped int cast."""
        b, last = self.bounds, self.fine_resolution - 1
        cells, row = x - b.x1, y - b.y1
        for axis, width in ((cells, self._cell_w), (row, self._cell_h)):
            axis /= width
            np.trunc(np.minimum(axis, last, out=axis), out=axis)
        cells *= self.fine_resolution
        cells += row
        return cells.astype(np.int64)

    def slot_entries(self, slot: int) -> tuple[np.ndarray, ...]:
        """``(entries, x1, y1, x2, y2)``: the Δ-image entry of every fine
        cell that has ``slot`` among its candidates, and the cells' closed
        boxes grown by the pruning ε (memoized).

        Every position :meth:`cells_of` maps to a cell lies inside its box:
        ε is nine orders of magnitude above the rounding of the
        subtract-and-divide that picks the cell.
        """
        found = self._slot_entries.get(slot)
        if found is None:
            layer, cells = np.nonzero(self._candidates == slot)
            x1, y1, x2, y2 = self._boxes(*np.divmod(cells, self.fine_resolution), 1)
            eps = self._eps
            found = self._slot_entries[slot] = (
                self._entries[layer, cells], x1 - eps, y1 - eps, x2 + eps, y2 + eps
            )
        return found

    def assign(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Station *slot* (index into the station list) per position."""
        return self.locate(x, y)[0]

    def locate(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(station slot, Δ-image entry)`` per position from one raster
        walk: the entry of the position's fine cell and of the winner's
        row among the cell's candidates (the cell itself where it has one
        candidate); positions outside the raster bounds get entry -1."""
        b = self.bounds
        if x.size == 0 or (
            x.min() >= b.x1 and x.max() <= b.x2 and y.min() >= b.y1 and y.max() <= b.y2
        ):
            cells = self.cells_of(x, y)
        else:
            inside = (x >= b.x1) & (x <= b.x2) & (y >= b.y1) & (y <= b.y2)
            cells = np.full(x.size, -1, dtype=np.int64)
            cells[inside] = self.cells_of(x[inside], y[inside])
        # Single-candidate cells need no distance computation at all:
        # the lone candidate wins whether or not it covers the point
        # (nearest-covering and nearest-overall coincide).  A contested
        # row farther than the band from its cell's split lines reads its
        # side's proved winner; the rest pay the resolve, each row on its
        # cell's own candidate count: columns are left-packed, so the
        # first k rows are exact (most contested cells have two).
        slots = self._single[cells]
        contested = np.flatnonzero(slots < 0)
        at = cells[contested]
        dx = np.take(x, contested)
        dx -= np.take(self._x_line, at)
        dy = np.take(y, contested)
        dy -= np.take(self._y_line, at)
        flat = at * 4
        flat += (dx >= 0) * 2
        flat += dy >= 0
        won = np.take(self._split_slot, flat)
        band = self._band
        left = np.flatnonzero(~((np.abs(dx) > band) & (np.abs(dy) > band) & (won >= 0)))
        slots[contested] = won
        cells[contested] = np.take(self._split_entry, flat)
        contested, at = contested[left], at[left]
        self.last_hypot_rows = int(contested.size)
        width = self._n_candidates[at]
        everyone = np.arange(len(self.stations))[:, None]
        for k in (0, *range(2, len(self._candidates) + 1)):
            pick = np.flatnonzero(width == k)
            if pick.size:
                rows, cell = contested[pick], at[pick]
                cand = np.take(self._candidates[:k], cell, axis=1) if k else everyone
                row = self._resolve(x[rows], y[rows], cand)
                if k:
                    flat = row * self._entries.shape[1] + cell
                    slots[rows] = np.take(self._candidates, flat)
                    cells[rows] = np.take(self._entries, flat)
                else:  # every station is a candidate: its row is its slot
                    slots[rows] = row
        return slots, cells

    def _resolve(self, x: np.ndarray, y: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """Row of the exact winner in each per-position candidate column:
        the first ``np.hypot`` minimum over the covering candidates, over
        all of them where none covers."""
        d = np.hypot(x - self._cx[cand], y - self._cy[cand])
        covers = d <= self._radius[cand]
        if len(cand) == 2:  # most contested cells: elementwise, not down an axis
            (d1, d2), (c1, c2) = d, covers
            return np.where(c1 == c2, d2 < d1, c2).astype(np.intp)
        return np.argmin(np.where(covers | ~covers.any(axis=0), d, np.inf), axis=0)


class _ThresholdRaster:
    """A station subset rasterized for batched Δ lookup.

    The raster lines are exactly the region-rect edges, so "is the point
    inside this rect?" (half-open, like :meth:`Rect.contains_xy`)
    coincides exactly with "does the point's raster cell lie in the
    rect's cell range?" — no alignment assumptions about the plan grid
    are needed, and stale subsets from older plans (different
    resolution) rasterize just as exactly.  Overlapping regions are
    painted in reverse subset order so the lowest region index wins,
    matching the per-node index's bucket-scan order.
    """

    def __init__(self, regions: tuple[SheddingRegion, ...]) -> None:
        self._regions = regions
        xs = sorted({e for r in regions for e in (r.rect.x1, r.rect.x2)})
        ys = sorted({e for r in regions for e in (r.rect.y1, r.rect.y2)})
        self._xs = np.array(xs, dtype=np.float64)
        self._ys = np.array(ys, dtype=np.float64)
        # Owner grid: index (into the subset tuple) of the region each
        # raster cell belongs to, -1 outside every region.  Painted in
        # reverse order so the lowest region index wins; the threshold
        # grid then derives from it, which is what lets ``repaint``
        # update only the cells a changed region owns.
        owner = np.full((len(xs) - 1, len(ys) - 1), -1, dtype=np.int64)
        for index in range(len(regions) - 1, -1, -1):
            i1, i2, j1, j2 = self._cell_span(regions[index].rect)
            owner[i1:i2, j1:j2] = index
        self._owner = owner
        # One NaN cell of padding all round ("no region here"), so a
        # lookup needs no bounds mask: ``searchsorted(side="right")``
        # maps positions before the first / from the last raster line
        # on to the border.  ``_grid`` is the interior view.
        deltas = np.array([r.delta for r in regions] + [np.nan], dtype=np.float64)
        self._padded = np.full((len(xs) + 1, len(ys) + 1), np.nan, dtype=np.float64)
        self._grid = self._padded[1:-1, 1:-1]
        self._grid[:] = deltas[owner]

    def _cell_span(self, rect) -> tuple[int, int, int, int]:
        return (
            int(np.searchsorted(self._xs, rect.x1)),
            int(np.searchsorted(self._xs, rect.x2)),
            int(np.searchsorted(self._ys, rect.y1)),
            int(np.searchsorted(self._ys, rect.y2)),
        )

    def repaint(self, regions: tuple[SheddingRegion, ...]) -> bool:
        """Update in place for a same-geometry subset; False otherwise.

        When ``regions`` carries exactly the rectangles this raster was
        built from (the delta-install steady state), only the cells
        owned by regions whose Δ changed are rewritten — the raster
        lines, owner grid, and unchanged cells stay put, and the result
        is bit-identical to a from-scratch rasterization.
        """
        old = self._regions
        if len(regions) != len(old) or any(
            new.rect != prev.rect for new, prev in zip(regions, old)
        ):
            return False
        for index, (new, prev) in enumerate(zip(regions, old)):
            if new.delta == prev.delta:
                continue
            i1, i2, j1, j2 = self._cell_span(new.rect)
            block = self._grid[i1:i2, j1:j2]
            block[self._owner[i1:i2, j1:j2] == index] = new.delta
        self._regions = regions
        return True

    def thresholds_at(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Δ of the stored region at each position, NaN where there is none."""
        return self._padded[
            np.searchsorted(self._xs, x, side="right"),
            np.searchsorted(self._ys, y, side="right"),
        ]

    def lookup(
        self, x1: np.ndarray, y1: np.ndarray, x2: np.ndarray, y2: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """What :meth:`thresholds_at` reads inside each closed box, as
        ``(value, split)``.

        ``value`` is what it reads at *every* point of the box (NaN
        included).  The raster lines are the union of the subset's region
        edges and most of them separate equal Δ, so that test is on
        values, not on lines: no two adjacent raster cells in the index
        window a box spans may differ (counted on an integral image per
        axis).  Where they do and at most one raster line per axis lies
        in the box, ``value`` is ``_SPLIT`` and a point of the box reads
        column ``2 + 2 * (x >= x_line) + (y >= y_line)`` of its ``split``
        row ``(x_line, y_line, four values)``, a missing line ``+inf``:
        the lines are the half-open region edges, every edge before the
        box is <= x and the next one past it is > x, so the two
        comparisons are what ``searchsorted(side="right")`` answers.
        Anything else is ``_EXACT``.
        """
        p = self._padded
        i1 = np.searchsorted(self._xs, x1, side="right")
        i2 = np.searchsorted(self._xs, x2, side="right")
        j1 = np.searchsorted(self._ys, y1, side="right")
        j2 = np.searchsorted(self._ys, y2, side="right")

        def steps(a, b, a1, a2, b1, b2):
            # Pairs a[k] != b[k] (NaN equal to NaN) per window [a1, a2) x [b1, b2).
            differ = (a != b) & ~(np.isnan(a) & np.isnan(b))
            total = np.zeros((differ.shape[0] + 1, differ.shape[1] + 1), dtype=np.int64)
            np.cumsum(np.cumsum(differ, axis=0), axis=1, out=total[1:, 1:])
            return total[a2, b2] - total[a1, b2] - total[a2, b1] + total[a1, b1]

        broken = steps(p[:-1], p[1:], i1, i2, j1, j2 + 1)
        broken += steps(p[:, :-1], p[:, 1:], i1, i2 + 1, j1, j2)
        one_line = (i2 - i1 <= 1) & (j2 - j1 <= 1)
        value = np.where(broken == 0, p[i1, j1], np.where(one_line, _SPLIT, _EXACT))
        # The line a box holds is the first one past its lower edge.
        x_line = np.where(i2 > i1, np.append(self._xs, np.inf)[i1], np.inf)
        y_line = np.where(j2 > j1, np.append(self._ys, np.inf)[j1], np.inf)
        return value, np.stack(
            [x_line, y_line, p[i1, j1], p[i1, j2], p[i2, j1], p[i2, j2]], axis=1
        )


class VectorNodeEngine:
    """Struct-of-arrays node-side engine, bit-identical to the per-node path.

    Node state lives in flat arrays: the slot of the serving station
    (-1 before first attachment), the installed region-subset version
    (-1 when the node stores no regions — never attached, or handed off
    to a station whose broadcast was lost), and per-node hand-off /
    install counters.  Per-station threshold rasters are cached by the
    *identity of the region tuple* they rasterize, so re-broadcasts of
    an unchanged plan (which reuse the network's cached per-station
    member tuples) rebuild nothing.
    """

    def __init__(
        self,
        n_nodes: int,
        network: SubsetProvider,
        bounds: Rect,
        assigner: StationAssigner | None = None,
    ) -> None:
        self.n_nodes = n_nodes
        self.network = network
        # ``assigner`` lets a caller choose the candidate raster (the
        # tests build one at a custom resolution); ``network`` then only
        # needs to answer ``subset_or_none``.
        self.assigner = assigner or StationAssigner(network.stations, bounds)
        self._station_slot = np.full(n_nodes, -1, dtype=np.int64)
        #: The stored subset's version and region count, written together;
        #: int32 each, so the pair costs what one int64 version did.
        self._installed_version = np.full(n_nodes, -1, dtype=np.int32)
        self._stored_regions = np.zeros(n_nodes, dtype=np.int32)
        self._handoffs = np.zeros(n_nodes, dtype=np.int64)
        self._installs = np.zeros(n_nodes, dtype=np.int64)
        self.total_handoffs = 0
        #: Station versions every node is known to be level with
        #: (``None`` = unknown): see :meth:`compute_thresholds`.
        self._level_with: np.ndarray | None = None
        #: slot -> (regions tuple its image entries are painted from, or
        #: ``None`` once that subset is gone; the slot's last raster | None).
        self._rasters: dict[int, tuple[tuple | None, _ThresholdRaster | None]] = {}
        #: Per (fine cell, candidate station) entry — and one spare last
        #: entry nobody paints, for cell -1, out of bounds — the Δ every
        #: point of the cell reads from that station's subset, NaN for "no
        #: region", ``_SPLIT`` (its row of ``_split`` then holds the two
        #: lines and the four values round them) or ``_EXACT``.
        self._image = np.full(self.assigner.n_entries + 1, _EXACT)
        self._split = np.full((self._image.size, 6), np.nan)
        #: Rows of the last tick the image could not answer.
        self.last_exact_rows = 0

    # ------------------------------------------------------------------
    # Per-tick station/subset state from the network
    # ------------------------------------------------------------------

    def _raster_for(self, slot: int, subset) -> _ThresholdRaster | None:
        """The slot's raster, brought level with ``subset`` together with
        the slot's entries of the Δ image (called for slots serving rows)."""
        regions = subset.regions
        known, raster = self._rasters.get(slot, (None, None))
        if known is regions:
            return raster
        if not (raster is not None and regions and raster.repaint(regions)):
            # (A same-geometry subset, the delta-install steady state,
            # rewrote only the changed regions' raster cells in place.)
            raster = _ThresholdRaster(regions) if regions else None
        entries, *boxes = self.assigner.slot_entries(slot)
        if raster is None:
            self._image[entries] = np.nan
        else:
            self._image[entries], self._split[entries] = raster.lookup(*boxes)
        # Holding the tuple keeps its identity meaningful.
        self._rasters[slot] = (regions, raster)
        return raster

    # ------------------------------------------------------------------
    # The per-tick batch
    # ------------------------------------------------------------------

    def compute_thresholds(
        self,
        positions: np.ndarray,
        active: np.ndarray | None,
        default: float,
    ) -> np.ndarray:
        """Per-node Δ for one tick; inactive nodes get ``inf``.

        Every position is assigned a station, but the protocol state is
        touched only at the few nodes that changed station or whose
        station re-broadcast; ``rows`` maps a position to its node (all
        of them in the common no-churn case, the active ones otherwise).
        """
        full = active is None
        rows = slice(None) if full else np.flatnonzero(active)
        x = np.ascontiguousarray(positions[rows, 0], dtype=np.float64)
        y = np.ascontiguousarray(positions[rows, 1], dtype=np.float64)
        if x.size == 0:
            return np.full(self.n_nodes, np.inf, dtype=np.float64)

        slots, entries = self.assigner.locate(x, y)
        previous = self._station_slot[rows]
        moved = np.flatnonzero(slots != previous)
        moved_rows = moved if full else rows[moved]
        handed_off = moved_rows[previous[moved] >= 0]
        self._handoffs[handed_off] += 1
        self.total_handoffs += handed_off.size
        if full:
            self._station_slot = slots
        else:
            self._station_slot[rows] = slots

        # Hand-off: adopt the new station's subset version (-1, i.e.
        # nothing stored, when its broadcast was lost) and region count.
        subsets = [self.network.subset_or_none(s.station_id) for s in self.assigner.stations]
        versions = np.array([-1 if s is None else s.version for s in subsets], dtype=np.int32)
        sizes = np.array([0 if s is None else len(s.regions) for s in subsets], dtype=np.int32)
        moved_version = versions[slots[moved]]
        self._installed_version[moved_rows] = moved_version
        self._stored_regions[moved_rows] = sizes[slots[moved]]
        self._installs[moved_rows[moved_version >= 0]] += 1
        # Same station: re-install where the broadcast version advanced
        # past the stored one.  A scan over everybody leaves every node
        # level with ``versions``; until some station's version moves
        # there is nothing to find.
        if self._level_with is None or not np.array_equal(versions, self._level_with):
            slot_version = versions[slots]
            stale = np.flatnonzero(
                (slot_version >= 0)
                & (slot_version != self._installed_version[rows])
            )
            stale_rows = stale if full else rows[stale]
            self._installs[stale_rows] += 1
            self._installed_version[stale_rows] = slot_version[stale]
            self._stored_regions[stale_rows] = sizes[slots[stale]]
            self._level_with = versions if full else None

        # A station whose subset changed identity (install, delta
        # repaint, matured delayed broadcast) is repainted now if it
        # serves rows this tick; otherwise its entries leave the image
        # and are painted again, by the exact path, when it next does.
        changed = [
            (slot, raster)
            for slot, (known, raster) in self._rasters.items()
            if known is not None and subsets[slot].regions is not known
        ]
        if changed:
            serving = np.bincount(slots, minlength=len(subsets))
            for slot, raster in changed:
                if serving[slot]:
                    self._raster_for(slot, subsets[slot])
                else:
                    self._image[self.assigner.slot_entries(slot)[0]] = _EXACT
                    self._rasters[slot] = (None, raster)

        # Threshold gather.  A row reads its entry of the image: the one
        # value every point of its cell reads from its station's subset,
        # or, in a cell one Δ step per axis crosses, the value on its
        # side of the two lines.  What is left gets one raster lookup per
        # station: grouped by station with one stable radix sort of the
        # (narrow) slot keys, so each station reads a contiguous slice.
        # No subset, an empty one, or no region at the position all read
        # NaN, replaced by Δ⊢ in one go.
        values = self._image[entries]
        split = np.flatnonzero(values == _SPLIT)
        table, at = self._split.ravel(), entries[split] * 6
        side = (x[split] >= table[at]) * 2 + (y[split] >= table[at + 1])
        values[split] = table[at + side + 2]
        values[self._installed_version[rows] < 0] = np.nan
        exact = np.flatnonzero(values == _EXACT)
        self.last_exact_rows = int(exact.size)
        n_stations = len(subsets)
        key = np.int16 if n_stations < 2**15 else np.int64
        group = slots[exact]
        order = exact[np.argsort(group.astype(key), kind="stable")]
        xs, ys = x[order], y[order]
        found = np.full(order.size, np.nan, dtype=np.float64)
        counts = np.bincount(group, minlength=n_stations)
        ends = np.cumsum(counts)
        for slot in np.flatnonzero(counts):
            raster = self._raster_for(slot, subsets[slot])
            if raster is not None:
                span = slice(ends[slot] - counts[slot], ends[slot])
                found[span] = raster.thresholds_at(xs[span], ys[span])
        values[order] = found
        np.copyto(values, default, where=np.isnan(values))
        if full:
            return values
        thresholds = np.full(self.n_nodes, np.inf, dtype=np.float64)
        thresholds[rows] = values
        return thresholds

    # ------------------------------------------------------------------
    # Introspection (parity with the per-node oracle)
    # ------------------------------------------------------------------

    # reprolint: disable=REP015 - test seam: parity with the per-node oracle.
    def stored_region_counts(self) -> np.ndarray:
        """How many shedding regions each node currently stores."""
        return self._stored_regions.astype(np.int64)

    # reprolint: disable=REP015 - test seam: parity with the per-node oracle.
    def handoff_counts(self) -> np.ndarray:
        """Per-node hand-off counters (parity introspection)."""
        return self._handoffs.copy()

    # reprolint: disable=REP015 - test seam: parity with the per-node oracle.
    def install_counts(self) -> np.ndarray:
        """Per-node subset-install counters (parity introspection)."""
        return self._installs.copy()

    # reprolint: disable=REP015 - test seam: parity with the per-node oracle.
    def station_slots(self) -> np.ndarray:
        """Current station id per node (-1 before first attachment)."""
        ids = np.full(self.n_nodes, -1, dtype=np.int64)
        attached = self._station_slot >= 0
        ids[attached] = self.assigner.station_ids[self._station_slot[attached]]
        return ids
