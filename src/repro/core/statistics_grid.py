"""The statistics grid — LIRA's only server-side data structure.

An α×α uniform grid over the monitoring space storing, per cell
``(i, j)``: the number of mobile nodes ``n``, the (fractional) number of
queries ``m``, and the average node speed ``s``.  Paper Section 3.2.1
lists three maintenance options — piggybacking on a grid index, explicit
maintenance from the update stream (optionally sampled), and off-line
precomputation.  The last two are supported here:

* :meth:`StatisticsGrid.from_snapshot` — build from a position snapshot
  plus a query workload (the off-line route);
* :meth:`StatisticsGrid.ingest_update` + :meth:`StatisticsGrid.roll` —
  constant-time-per-update incremental maintenance with optional
  sampling, accumulating a fresh window and swapping it in.
"""

from __future__ import annotations

import numpy as np

from repro.geo import Rect
from repro.queries import RangeQuery


class StatisticsGrid:
    """α×α grid of (node count, query count, mean speed) statistics.

    Indexing convention: ``n[i, j]`` is the cell with x-index ``i`` and
    y-index ``j`` (x grows with i, y with j).
    """

    #: Single-entry memo of the query layer :meth:`from_snapshot` last
    #: rasterized, keyed by value on ``(bounds, α, query rectangles)``;
    #: the stored array is private (copied in and out).
    _query_layer: tuple[tuple, np.ndarray] | None = None

    def __init__(self, bounds: Rect, alpha: int) -> None:
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        self.bounds = bounds
        self.alpha = alpha
        self.n = np.zeros((alpha, alpha), dtype=np.float64)
        self.m = np.zeros((alpha, alpha), dtype=np.float64)
        self.s = np.zeros((alpha, alpha), dtype=np.float64)
        self._cell_w = bounds.width / alpha
        self._cell_h = bounds.height / alpha
        # Accumulators for incremental maintenance.
        self._acc_count = np.zeros((alpha, alpha), dtype=np.float64)
        self._acc_speed = np.zeros((alpha, alpha), dtype=np.float64)
        self._acc_updates = 0

    # ------------------------------------------------------------------
    # Construction from snapshots
    # ------------------------------------------------------------------

    @classmethod
    def from_snapshot(
        cls,
        bounds: Rect,
        alpha: int,
        positions: np.ndarray,
        speeds: np.ndarray | None = None,
        queries: list[RangeQuery] | None = None,
    ) -> "StatisticsGrid":
        """Build a grid from current node positions (+speeds, +queries).

        A standing query set is rasterized once: the query layer is a
        pure function of ``(bounds, alpha, query rectangles in order)``,
        so a call repeating the previous call's values copies the
        memoized layer instead of re-running
        :meth:`set_query_statistics` (bit-identical; one rectangle
        moved, the list reordered, or another grid shape recomputes).
        """
        grid = cls(bounds, alpha)
        grid.set_node_statistics(positions, speeds)
        if queries:
            key = (bounds, alpha, tuple(query.rect for query in queries))
            memo = StatisticsGrid._query_layer
            if memo is not None and memo[0] == key:
                grid.m = memo[1].copy()
            else:
                grid.set_query_statistics(queries)
                StatisticsGrid._query_layer = (key, grid.m.copy())
        return grid

    def set_node_statistics(
        self, positions: np.ndarray, speeds: np.ndarray | None = None
    ) -> None:
        """Replace node counts and mean speeds from a snapshot.

        ``positions`` has shape ``(n, 2)``; ``speeds`` shape ``(n,)``
        (defaults to zeros).  Out-of-bounds nodes clamp to edge cells.
        """
        positions = np.asarray(positions, dtype=np.float64)
        count = len(positions)
        if speeds is None:
            speeds = np.zeros(count)
        speeds = np.asarray(speeds, dtype=np.float64)
        if speeds.shape != (count,):
            raise ValueError("speeds must have shape (len(positions),)")
        ix, iy = self.cell_indices(positions)
        flat = ix * self.alpha + iy
        n_flat = np.bincount(flat, minlength=self.alpha * self.alpha).astype(np.float64)
        s_flat = np.bincount(flat, weights=speeds, minlength=self.alpha * self.alpha)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.where(n_flat > 0, s_flat / np.maximum(n_flat, 1), 0.0)
        self.n = n_flat.reshape(self.alpha, self.alpha)
        self.s = mean.reshape(self.alpha, self.alpha)

    def set_query_statistics(self, queries: list[RangeQuery]) -> None:
        """Replace per-cell query counts, counting overlaps fractionally.

        A query contributes ``area(q ∩ cell) / area(q)`` to each cell,
        implementing the paper's "queries partially intersecting the
        shedding region are fractionally counted" rule at grid-cell
        granularity (shedding regions are unions of cells, so fractional
        counts aggregate exactly).
        """
        self.m = np.zeros((self.alpha, self.alpha), dtype=np.float64)
        for query in queries:
            self._add_query(query.rect, 1.0)

    def _add_query(self, rect: Rect, weight: float) -> None:
        clipped = rect.intersection(
            Rect(self.bounds.x1, self.bounds.y1, self.bounds.x2, self.bounds.y2)
        )
        # reprolint: disable=REP010 - exact guard for a degenerate
        # zero-area query rectangle before fractional-overlap weighting.
        if clipped is None or rect.area == 0.0:
            return
        i_lo = self._clamp_i((clipped.x1 - self.bounds.x1) / self._cell_w)
        i_hi = self._clamp_i((clipped.x2 - self.bounds.x1) / self._cell_w, ceil=True)
        j_lo = self._clamp_i((clipped.y1 - self.bounds.y1) / self._cell_h)
        j_hi = self._clamp_i((clipped.y2 - self.bounds.y1) / self._cell_h, ceil=True)
        # Separable overlap: per-row and per-column overlap vectors whose
        # outer product is each cell's intersection area.  Element-wise
        # arithmetic and operation order match the former per-cell loop,
        # so accumulated fractions are bit-identical (cells with no
        # overlap contribute exactly +0.0).
        cell_x1 = self.bounds.x1 + np.arange(i_lo, i_hi, dtype=np.float64) * self._cell_w
        overlap_x = np.minimum(clipped.x2, cell_x1 + self._cell_w) - np.maximum(
            clipped.x1, cell_x1
        )
        cell_y1 = self.bounds.y1 + np.arange(j_lo, j_hi, dtype=np.float64) * self._cell_h
        overlap_y = np.minimum(clipped.y2, cell_y1 + self._cell_h) - np.maximum(
            clipped.y1, cell_y1
        )
        overlap_x = np.where(overlap_x > 0.0, overlap_x, 0.0)
        overlap_y = np.where(overlap_y > 0.0, overlap_y, 0.0)
        self.m[i_lo:i_hi, j_lo:j_hi] += (
            weight * np.outer(overlap_x, overlap_y) / rect.area
        )

    def _clamp_i(self, value: float, ceil: bool = False) -> int:
        """Clamp a fractional cell coordinate to a valid loop bound."""
        idx = int(np.ceil(value)) if ceil else int(np.floor(value))
        return min(max(idx, 0), self.alpha)

    # ------------------------------------------------------------------
    # Incremental maintenance from the update stream
    # ------------------------------------------------------------------

    def ingest_update(self, x: float, y: float, speed: float = 0.0) -> None:
        """Account one position update into the current accumulation window.

        Constant time, as the paper requires.  Callers implementing
        sampling simply invoke this for a subset of updates; the
        normalization happens in :meth:`roll`.
        """
        i, j = self._cell_of(x, y)
        self._acc_count[i, j] += 1.0
        self._acc_speed[i, j] += speed
        self._acc_updates += 1

    def ingest_updates(
        self, xs: np.ndarray, ys: np.ndarray, speeds: np.ndarray
    ) -> None:
        """Batched :meth:`ingest_update`: account a whole update batch.

        ``np.add.at`` applies the unbuffered accumulations in element
        order, so the resulting accumulators are bit-identical to
        calling :meth:`ingest_update` once per message in batch order.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        speeds = np.asarray(speeds, dtype=np.float64)
        if xs.size == 0:
            return
        i = ((xs - self.bounds.x1) / self._cell_w).astype(np.int64)
        j = ((ys - self.bounds.y1) / self._cell_h).astype(np.int64)
        np.clip(i, 0, self.alpha - 1, out=i)
        np.clip(j, 0, self.alpha - 1, out=j)
        np.add.at(self._acc_count, (i, j), 1.0)
        np.add.at(self._acc_speed, (i, j), speeds)
        self._acc_updates += int(xs.size)

    def roll(self, expected_updates_per_node: float = 1.0) -> None:
        """Swap the accumulation window into the live statistics.

        ``expected_updates_per_node`` converts raw update counts into
        node-count estimates (a node reporting k times in the window
        contributes k updates).  Mean speeds are per-update averages.

        Allocation-free: the statistics are finalized *inside* the
        accumulator buffers, which then become the live ``n``/``s``
        arrays, while the previous live buffers are zeroed and recycled
        as the next accumulation window (double buffering).  A
        reference to ``grid.n`` taken before a roll therefore aliases a
        future accumulator — copy it if it must survive the next window.
        """
        if expected_updates_per_node <= 0:
            raise ValueError("expected_updates_per_node must be positive")
        acc_count, acc_speed = self._acc_count, self._acc_speed
        # A cell's speed sum is zero wherever its update count is zero
        # (both accumulate together), so dividing by max(count, 1)
        # everywhere gives exactly the old where(count > 0, ...) result.
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(acc_speed, np.maximum(acc_count, 1.0), out=acc_speed)
        acc_count /= expected_updates_per_node
        previous_n, previous_s = self.n, self.s
        self.n, self.s = acc_count, acc_speed
        previous_n[:] = 0.0
        previous_s[:] = 0.0
        self._acc_count, self._acc_speed = previous_n, previous_s
        self._acc_updates = 0

    # ------------------------------------------------------------------
    # Cell geometry and aggregates
    # ------------------------------------------------------------------

    def cell_indices(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (i, j) cell indices for positions of shape (n, 2)."""
        positions = np.asarray(positions, dtype=np.float64)
        ix = ((positions[:, 0] - self.bounds.x1) / self._cell_w).astype(np.int64)
        iy = ((positions[:, 1] - self.bounds.y1) / self._cell_h).astype(np.int64)
        np.clip(ix, 0, self.alpha - 1, out=ix)
        np.clip(iy, 0, self.alpha - 1, out=iy)
        return ix, iy

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        i = int((x - self.bounds.x1) / self._cell_w)
        j = int((y - self.bounds.y1) / self._cell_h)
        return (
            min(max(i, 0), self.alpha - 1),
            min(max(j, 0), self.alpha - 1),
        )

    @property
    def total_nodes(self) -> float:
        """Total node count over all cells."""
        return float(self.n.sum())

    @property
    def total_queries(self) -> float:
        """Total (fractional) query count over all cells."""
        return float(self.m.sum())

    @property
    def mean_speed(self) -> float:
        """Node-weighted overall average speed ŝ."""
        total = self.n.sum()
        if total == 0:
            return 0.0
        return float((self.n * self.s).sum() / total)
