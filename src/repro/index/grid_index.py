"""Uniform grid index over point sets.

The paper assumes the CQ server maintains a spatial index on node
positions (citing grid-based indexes [9, 11]) and notes that LIRA's
statistics grid "can be trivially supported as part of the grid index."
This module is that substrate: a uniform grid mapping cells to the node
ids currently inside them, supporting point updates and range queries.
"""

from __future__ import annotations

import numpy as np

from repro.geo import Rect
from repro.queries import QueryEvalKernel, RangeQuery


class GridIndex:
    """A uniform spatial grid index on 2-D points.

    Points are identified by integer ids.  The index supports bulk
    build, incremental moves, and rectangle queries.  Out-of-bounds
    points are clamped into the boundary cells, matching how a server
    would treat nodes just outside the administrative region.
    """

    def __init__(self, bounds: Rect, cells_per_side: int) -> None:
        if cells_per_side <= 0:
            raise ValueError("cells_per_side must be positive")
        self.bounds = bounds
        self.cells_per_side = cells_per_side
        self._cell_w = bounds.width / cells_per_side
        self._cell_h = bounds.height / cells_per_side
        self._cells: dict[tuple[int, int], set[int]] = {}
        self._locations: dict[int, tuple[int, int]] = {}
        self._positions: dict[int, tuple[float, float]] = {}

    def __len__(self) -> int:
        return len(self._locations)

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """Grid cell coordinates containing (clamped) point ``(x, y)``."""
        cx = int((x - self.bounds.x1) / self._cell_w) if self._cell_w else 0
        cy = int((y - self.bounds.y1) / self._cell_h) if self._cell_h else 0
        cx = min(max(cx, 0), self.cells_per_side - 1)
        cy = min(max(cy, 0), self.cells_per_side - 1)
        return cx, cy

    def insert(self, point_id: int, x: float, y: float) -> None:
        """Insert or move a point."""
        new_cell = self.cell_of(x, y)
        old_cell = self._locations.get(point_id)
        if old_cell is not None and old_cell != new_cell:
            self._cells[old_cell].discard(point_id)
            if not self._cells[old_cell]:
                del self._cells[old_cell]
        self._cells.setdefault(new_cell, set()).add(point_id)
        self._locations[point_id] = new_cell
        self._positions[point_id] = (x, y)

    def remove(self, point_id: int) -> None:
        """Remove a point; missing ids raise ``KeyError``."""
        cell = self._locations.pop(point_id)
        self._positions.pop(point_id)
        self._cells[cell].discard(point_id)
        if not self._cells[cell]:
            del self._cells[cell]

    def bulk_build(self, positions: np.ndarray) -> None:
        """Rebuild from scratch with ids ``0..n-1`` at ``positions`` (n, 2)."""
        self._cells.clear()
        self._locations.clear()
        self._positions.clear()
        for point_id, (x, y) in enumerate(np.asarray(positions, dtype=np.float64)):
            self.insert(point_id, float(x), float(y))

    def query(self, rect: Rect) -> list[int]:
        """Ids of points inside ``rect`` (half-open containment)."""
        lo = self.cell_of(rect.x1, rect.y1)
        hi = self.cell_of(rect.x2, rect.y2)
        result = []
        for cx in range(lo[0], hi[0] + 1):
            for cy in range(lo[1], hi[1] + 1):
                for point_id in self._cells.get((cx, cy), ()):
                    x, y = self._positions[point_id]
                    if rect.contains_xy(x, y):
                        result.append(point_id)
        return result

    def query_batch(self, queries: list[RangeQuery]) -> list[np.ndarray]:
        """Evaluate a whole query workload in one vectorized pass.

        Returns one sorted point-id array per query, in query order.
        Containment semantics are exactly those of :meth:`query` — both
        delegate to the half-open convention of :class:`~repro.geo.Rect`,
        with the batch path going through
        :class:`~repro.queries.QueryEvalKernel`, the cell -> query index
        the CQ server evaluates through.
        """
        if not self._positions:
            return [np.empty(0, dtype=np.int64) for _ in queries]
        ids = np.fromiter(
            self._positions.keys(), dtype=np.int64, count=len(self._positions)
        )
        coords = np.array(
            [self._positions[int(i)] for i in ids], dtype=np.float64
        )
        kernel = QueryEvalKernel(
            queries, bounds=self.bounds, cells_per_side=self.cells_per_side
        )
        order = np.argsort(ids, kind="stable")
        ids, coords = ids[order], coords[order]
        return [ids[rows] for rows in kernel.evaluate(coords)]

    def cell_counts(self) -> np.ndarray:
        """Point counts per cell, shape ``(cells, cells)`` indexed [cx, cy].

        This is the hook the statistics grid uses when piggybacking on
        the server's index.
        """
        counts = np.zeros((self.cells_per_side, self.cells_per_side), dtype=np.int64)
        for (cx, cy), members in self._cells.items():
            counts[cx, cy] = len(members)
        return counts
