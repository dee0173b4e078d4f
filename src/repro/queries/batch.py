"""Vectorized batch evaluation of range CQs over one cell -> query index.

Re-evaluating every range CQ against every believed position is one of
the two costly components of a mobile CQ server (the other is the update
stream LIRA sheds).  :class:`QueryEvalKernel` is the repo's one
evaluation path: it stacks the workload's rectangles into a ``(Q, 4)``
matrix and, given the monitoring bounds, builds a cell -> query inverted
index (a CSR map from bucket-grid cells to the queries overlapping
them).  Two consumers sit on top:

* :meth:`QueryEvalKernel.evaluate` — the server's path.  Rows are mapped
  to cells, rows whose cell holds no query are dropped, and the exact
  comparisons run on the surviving (query, row) candidate pairs only;
  no ``(Q, N)`` matrix is materialised.
* :meth:`QueryEvalKernel.measure` — the simulation's accuracy loop,
  which wants boolean masks (missing/extra counts are mask arithmetic)
  and therefore builds the ``(Q, N)`` containment matrix.

Containment uses the exact half-open convention of
:class:`~repro.geo.Rect` (``x1 <= x < x2`` and ``y1 <= y < y2``), so
kernel results are always identical to the brute-force reference
``evaluate_queries``.  NaN coordinates compare false on every bound and
are therefore never contained, matching ``RangeQuery.evaluate``.

Pruning is a superset filter *by construction*: positions and all four
rectangle edges go through the same monotone cell function
(:meth:`QueryEvalKernel._axis_cells`), and a query is bucketed in the
inclusive cell range ``cell(x1)..cell(x2)``.  Monotonicity survives
floating-point rounding, so ``x1 <= x < x2`` implies
``cell(x1) <= cell(x) <= cell(x2)`` — a contained point can never land
outside its query's buckets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo import Rect
from repro.queries.range_query import RangeQuery

#: Above this many (query, node) pairs the dense containment matrix is
#: built via cell-bucket candidate pruning instead of full broadcasting.
_PRUNE_PAIR_THRESHOLD = 1 << 22


def stack_bounds(queries: list[RangeQuery]) -> np.ndarray:
    """Stacked query rectangles, shape ``(Q, 4)`` as ``x1, y1, x2, y2``."""
    bounds = np.empty((len(queries), 4), dtype=np.float64)
    for i, query in enumerate(queries):
        r = query.rect
        bounds[i, 0] = r.x1
        bounds[i, 1] = r.y1
        bounds[i, 2] = r.x2
        bounds[i, 3] = r.y2
    return bounds


def _ragged_arange(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, offset)`` of every element of a ragged array with the given
    per-owner ``counts``: owner ``k`` contributes offsets ``0..counts[k]-1``."""
    owner = np.repeat(np.arange(counts.size), counts)
    first = np.cumsum(counts) - counts
    return owner, np.arange(owner.size) - first[owner]


@dataclass(frozen=True)
class BatchMeasurement:
    """Per-query accuracy measurements of one (truth, believed) snapshot pair.

    All arrays have shape ``(Q,)``.  ``containment_error`` is the paper's
    per-tick E_rr^C contribution ``(|missing| + |extra|) / |true set|``
    (NaN where the true set is empty); ``position_error`` is the mean
    distance between believed and true positions over the believed result
    set (NaN where that set is empty).  The boolean masks say which
    entries are valid, so accumulators can stay branch-free.
    """

    containment_error: np.ndarray
    has_true: np.ndarray
    position_error: np.ndarray
    has_believed: np.ndarray


class QueryEvalKernel:
    """Evaluates a fixed query workload against position snapshots, batched.

    Parameters:
        queries: the workload; order defines row order of all outputs.
        bounds: monitoring-space bounds for the cell -> query index
            (typically the trace / statistics-grid bounds).  ``None``
            builds no index; only the dense ``(Q, N)`` path is available.
        cells_per_side: bucket grid resolution (the statistics grid's
            alpha when piggybacking on it).

    ``last_candidate_rows`` / ``last_candidate_pairs`` count the rows
    that sat in a query-bearing cell and the (query, row) pairs compared
    exactly during the most recent indexed evaluation — the work the
    index did *not* prune.
    """

    def __init__(
        self,
        queries: list[RangeQuery],
        bounds: Rect | None = None,
        cells_per_side: int = 64,
    ) -> None:
        self.queries = list(queries)
        self.bounds = bounds
        self.rects = stack_bounds(self.queries)
        self.last_candidate_rows = 0
        self.last_candidate_pairs = 0
        self._scratch: np.ndarray | None = None
        # Column views reused every tick; [:, None] makes them broadcast
        # against a (N,) coordinate vector into the (Q, N) matrix.
        self._x1 = self.rects[:, 0][:, None]
        self._y1 = self.rects[:, 1][:, None]
        self._x2 = self.rects[:, 2][:, None]
        self._y2 = self.rects[:, 3][:, None]
        if bounds is not None:
            if cells_per_side < 1:
                raise ValueError("cells_per_side must be >= 1")
            self.cells_per_side = cells_per_side
            self._cell_w = bounds.width / cells_per_side
            self._cell_h = bounds.height / cells_per_side
            self._build_buckets()
        else:
            self.cells_per_side = 0
            self._bucket_offsets = None

    # ------------------------------------------------------------------
    # Cell -> query inverted index
    # ------------------------------------------------------------------

    def _axis_cells(self, values: np.ndarray, origin: float, width: float) -> np.ndarray:
        """Bucket-cell index along one axis, clamped into the grid.

        *The* cell function: positions and rectangle edges both go
        through this expression, and every step of it (subtract, divide,
        clamp, truncate) is monotone non-decreasing under floating-point
        rounding, which is what makes the buckets a superset filter.
        Out-of-bounds values clamp to the edge cells (``-inf`` to the
        first, ``+inf`` to the last); NaN lands in the first cell, where
        exact containment rejects it.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cell = values - origin
            cell /= width
        np.fmax(cell, 0.0, out=cell)  # fmax/fmin drop NaN; clip would keep it
        np.fmin(cell, self.cells_per_side - 1.0, out=cell)
        return cell.astype(np.intp)  # truncation == floor: cell >= 0

    def _build_buckets(self) -> None:
        """CSR map flat cell id -> ids of the queries bucketed in it.

        A query occupies the inclusive cell range of its own edges, so
        one sticking out of (or lying entirely outside) the bounds maps
        onto the edge cells — exactly where out-of-bounds positions
        clamp to — and a zero-width one still occupies its lo cell.
        """
        cells = self.cells_per_side
        b, r = self.bounds, self.rects
        i_lo = self._axis_cells(r[:, 0], b.x1, self._cell_w)
        i_hi = self._axis_cells(r[:, 2], b.x1, self._cell_w)
        j_lo = self._axis_cells(r[:, 1], b.y1, self._cell_h)
        j_hi = self._axis_cells(r[:, 3], b.y1, self._cell_h)
        rows_per_query = j_hi - j_lo + 1
        qids, within = _ragged_arange((i_hi - i_lo + 1) * rows_per_query)
        di, dj = np.divmod(within, rows_per_query[qids])
        flat = (i_lo[qids] + di) * cells + j_lo[qids] + dj
        self._bucket_queries = qids[np.argsort(flat, kind="stable")]
        self._bucket_offsets = np.zeros(cells * cells + 1, dtype=np.intp)
        np.cumsum(
            np.bincount(flat, minlength=cells * cells), out=self._bucket_offsets[1:]
        )
        self._has_query = self._bucket_offsets[1:] > self._bucket_offsets[:-1]

    def _candidate_pairs(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(query, row) candidate pairs from the cell buckets, vectorized.

        Rows whose cell holds no query are dropped first; every query
        bucketed in a surviving row's cell is a candidate.  Pairs come
        out in ascending row order.
        """
        b = self.bounds
        flat = self._axis_cells(positions[:, 0], b.x1, self._cell_w)
        flat *= self.cells_per_side
        flat += self._axis_cells(positions[:, 1], b.y1, self._cell_h)
        rows = np.flatnonzero(self._has_query[flat])
        cell = flat[rows]
        starts = self._bucket_offsets[cell]
        pair_rows, within = _ragged_arange(self._bucket_offsets[cell + 1] - starts)
        self.last_candidate_rows = int(rows.size)
        self.last_candidate_pairs = int(within.size)
        return self._bucket_queries[starts[pair_rows] + within], rows[pair_rows]

    def _contained_pairs(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The candidate pairs that pass the exact half-open comparisons."""
        if self._bucket_offsets is None:
            raise ValueError("kernel was built without bounds; no bucket index")
        q_idx, n_idx = self._candidate_pairs(positions)
        px, py = positions[n_idx, 0], positions[n_idx, 1]
        rect = self.rects[q_idx]
        inside = (
            (px >= rect[:, 0])
            & (px < rect[:, 2])
            & (py >= rect[:, 1])
            & (py < rect[:, 3])
        )
        return q_idx[inside], n_idx[inside]

    # ------------------------------------------------------------------
    # Containment
    # ------------------------------------------------------------------

    def containment(self, positions: np.ndarray, prune: bool | None = None) -> np.ndarray:
        """Boolean containment matrix ``(Q, N)``.

        ``out[q, n]`` is true iff node ``n`` lies inside query ``q`` under
        the half-open convention.  ``prune=None`` picks the dense or
        bucket-pruned construction automatically by problem size.
        """
        positions = np.asarray(positions, dtype=np.float64)
        n = positions.shape[0]
        q = len(self.queries)
        if prune is None:
            prune = (
                self._bucket_offsets is not None
                and q * n > _PRUNE_PAIR_THRESHOLD
            )
        if prune:
            out = np.zeros((q, n), dtype=bool)
            out[self._contained_pairs(positions)] = True
            return out
        x, y = positions[:, 0], positions[:, 1]
        # In-place ufuncs with a reusable scratch buffer: one output
        # allocation per call instead of seven temporaries.  The
        # comparisons are unchanged, so the matrix is bit-identical
        # to the naive chained expression.
        out = np.empty((q, n), dtype=bool)
        scratch = self._scratch
        if scratch is None or scratch.shape != out.shape:
            scratch = self._scratch = np.empty_like(out)
        np.greater_equal(x, self._x1, out=out)
        np.less(x, self._x2, out=scratch)
        out &= scratch
        np.greater_equal(y, self._y1, out=scratch)
        out &= scratch
        np.less(y, self._y2, out=scratch)
        out &= scratch
        return out

    def evaluate(self, positions: np.ndarray, prune: bool | None = None) -> list[np.ndarray]:
        """Per-query ascending row-id arrays — drop-in for ``evaluate_queries``.

        With an index (``prune=None`` uses it whenever the kernel has
        one) only rows in query-bearing cells are touched and no
        ``(Q, N)`` matrix exists: the contained pairs, already in row
        order, are stably sorted by query and split at the query
        boundaries.  ``prune=False`` reads the rows of the dense matrix.
        """
        if prune is None:
            prune = self._bucket_offsets is not None
        if not prune:
            return [np.flatnonzero(row) for row in self.containment(positions, prune=False)]
        positions = np.asarray(positions, dtype=np.float64)
        q_idx, n_idx = self._contained_pairs(positions)
        order = np.argsort(q_idx, kind="stable")
        rows = n_idx[order]
        cuts = np.searchsorted(q_idx[order], np.arange(len(self.queries) + 1)).tolist()
        return [rows[lo:hi] for lo, hi in zip(cuts, cuts[1:])]

    # ------------------------------------------------------------------
    # Accuracy measurement (the simulation hot path)
    # ------------------------------------------------------------------

    def measure(
        self, true_positions: np.ndarray, believed: np.ndarray
    ) -> BatchMeasurement:
        """One tick of accuracy accounting, all queries at once.

        ``true_positions`` are ground truth, ``believed`` the server's
        dead-reckoned view where never-reported nodes are NaN.  Matches
        the brute-force loop bit for bit: containment errors come from
        integer mask arithmetic (symmetric difference == missing + extra),
        and per-query position errors average exactly the same compacted
        distance arrays the reference implementation builds.
        """
        true_positions = np.asarray(true_positions, dtype=np.float64)
        believed = np.asarray(believed, dtype=np.float64)
        # One stacked containment pass covers both snapshots: elementwise
        # comparisons are independent per position row, so the split
        # halves equal two separate calls exactly.  Unknown (NaN) rows
        # compare false on every bound, so they join no result.
        n = true_positions.shape[0]
        stacked = self.containment(
            np.concatenate((true_positions, believed), axis=0)
        )
        true_mask = stacked[:, :n]
        believed_mask = stacked[:, n:]

        true_size = np.count_nonzero(true_mask, axis=1)
        sym_diff = np.count_nonzero(true_mask ^ believed_mask, axis=1)
        has_true = true_size > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            containment_error = np.where(
                has_true, sym_diff / np.maximum(true_size, 1), np.nan
            )

        believed_size = np.count_nonzero(believed_mask, axis=1)
        has_believed = believed_size > 0
        position_error = np.full(len(self.queries), np.nan)
        if has_believed.any():
            # NaN rows (never-reported nodes) yield NaN distances but are
            # never selected by believed_mask, so the warning is noise.
            with np.errstate(invalid="ignore"):
                distances = np.linalg.norm(believed - true_positions, axis=1)
            for qi in np.flatnonzero(has_believed):
                # Mean over the compacted per-query distance array — the
                # same reduction order as the brute-force reference, so
                # results match bitwise.
                position_error[qi] = float(distances[believed_mask[qi]].mean())
        return BatchMeasurement(
            containment_error=containment_error,
            has_true=has_true,
            position_error=position_error,
            has_believed=has_believed,
        )
