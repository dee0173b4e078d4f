"""Query indexing: a grid index over installed query rectangles.

Mobile CQ systems invert the classic evaluation direction: instead of
asking "which objects are in this query?" per query, each incoming
position update asks "which queries cover this position?" (Prabhakar et
al.'s Query Indexing [12], also the core of SINA [11]).  A uniform grid
over the query rectangles answers that in O(candidates-per-cell).
"""

from __future__ import annotations

from repro.geo import Rect
from repro.queries import RangeQuery


class QueryIndex:
    """Uniform grid mapping cells to the queries overlapping them."""

    def __init__(self, bounds: Rect, cells_per_side: int = 32) -> None:
        if cells_per_side < 1:
            raise ValueError("cells_per_side must be >= 1")
        self.bounds = bounds
        self.cells_per_side = cells_per_side
        self._cell_w = bounds.width / cells_per_side
        self._cell_h = bounds.height / cells_per_side
        self._cells: dict[tuple[int, int], set[int]] = {}
        self._queries: dict[int, RangeQuery] = {}
        self.candidate_checks = 0

    def __len__(self) -> int:
        return len(self._queries)

    def __contains__(self, query_id: int) -> bool:
        return query_id in self._queries

    def _cell_range(self, rect: Rect) -> tuple[int, int, int, int]:
        i_lo = int((rect.x1 - self.bounds.x1) / self._cell_w)
        i_hi = int((rect.x2 - self.bounds.x1) / self._cell_w)
        j_lo = int((rect.y1 - self.bounds.y1) / self._cell_h)
        j_hi = int((rect.y2 - self.bounds.y1) / self._cell_h)
        def clamp(v: int) -> int:
            return min(max(v, 0), self.cells_per_side - 1)

        return clamp(i_lo), clamp(i_hi), clamp(j_lo), clamp(j_hi)

    def add(self, query: RangeQuery) -> None:
        """Install a query; its id must not already be present."""
        if query.query_id in self._queries:
            raise KeyError(f"query {query.query_id} already installed")
        self._queries[query.query_id] = query
        i_lo, i_hi, j_lo, j_hi = self._cell_range(query.rect)
        for i in range(i_lo, i_hi + 1):
            for j in range(j_lo, j_hi + 1):
                self._cells.setdefault((i, j), set()).add(query.query_id)

    def remove(self, query_id: int) -> RangeQuery:
        """Uninstall a query by id; raises ``KeyError`` if absent."""
        query = self._queries.pop(query_id)
        i_lo, i_hi, j_lo, j_hi = self._cell_range(query.rect)
        for i in range(i_lo, i_hi + 1):
            for j in range(j_lo, j_hi + 1):
                cell = self._cells.get((i, j))
                if cell is not None:
                    cell.discard(query_id)
                    if not cell:
                        del self._cells[(i, j)]
        return query

    def replace(self, query: RangeQuery) -> None:
        """Atomically move a query (used by moving queries)."""
        if query.query_id in self._queries:
            self.remove(query.query_id)
        self.add(query)

    def get(self, query_id: int) -> RangeQuery:
        return self._queries[query_id]

    def queries_at(self, x: float, y: float) -> set[int]:
        """Ids of queries whose rectangle contains point ``(x, y)``."""
        i = int((x - self.bounds.x1) / self._cell_w)
        j = int((y - self.bounds.y1) / self._cell_h)
        i = min(max(i, 0), self.cells_per_side - 1)
        j = min(max(j, 0), self.cells_per_side - 1)
        hits = set()
        for query_id in self._cells.get((i, j), ()):
            self.candidate_checks += 1
            if self._queries[query_id].rect.contains_xy(x, y):
                hits.add(query_id)
        return hits
