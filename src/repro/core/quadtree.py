"""Region hierarchy: the complete quad-tree over the statistics grid.

Stage I of GRIDREDUCE (Algorithm 1, lines 1-9): build a ``log2(α)+1``
level quad-tree whose leaves are the α×α grid cells, aggregating node
counts, query counts, and (node-weighted) average speeds bottom-up.

Aggregation here is vectorized: each level's statistics are 2^d × 2^d
arrays computed from the level below with a block-sum reshape, which is
the numpy equivalent of the paper's post-order traversal and keeps the
O(α²) time bound with a small constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo import Rect
from repro.core.statistics_grid import StatisticsGrid


@dataclass(frozen=True, slots=True)
class RegionNode:
    """One quad-tree node: a square block of grid cells with statistics.

    ``level`` 0 is the root (the whole space); at level ``d`` the node is
    the block at coordinates ``(i, j)`` of the 2^d × 2^d uniform
    partitioning.  ``n``, ``m``, ``s`` are the aggregated node count,
    fractional query count, and node-weighted mean speed.
    """

    level: int
    i: int
    j: int
    n: float
    m: float
    s: float
    rect: Rect


class RegionHierarchy:
    """Complete quad-tree of aggregated statistics over an α×α grid.

    Requires α to be a power of two (as in the paper) so the hierarchy
    bottoms out exactly at the grid cells.
    """

    def __init__(self, grid: StatisticsGrid) -> None:
        alpha = grid.alpha
        if alpha & (alpha - 1) != 0:
            raise ValueError(f"alpha must be a power of two, got {alpha}")
        self.bounds = grid.bounds
        self.alpha = alpha
        self.depth = int(np.log2(alpha))  # leaf level index
        self._rects: dict[tuple[int, int, int], Rect] = {}
        self._n_levels: list[np.ndarray] = [np.empty(0)] * (self.depth + 1)
        self._m_levels: list[np.ndarray] = [np.empty(0)] * (self.depth + 1)
        self._s_levels: list[np.ndarray] = [np.empty(0)] * (self.depth + 1)
        self.refresh(grid)

    @property
    def root(self) -> RegionNode:
        """The whole monitoring space with global aggregates."""
        return self.node(0, 0, 0)

    def node(self, level: int, i: int, j: int) -> RegionNode:
        """The node at ``(level, i, j)``; bounds-checked."""
        rect = self.rect(level, i, j)
        return RegionNode(
            level=level,
            i=i,
            j=j,
            n=float(self._n_levels[level][i, j]),
            m=float(self._m_levels[level][i, j]),
            s=float(self._s_levels[level][i, j]),
            rect=rect,
        )

    def rect(self, level: int, i: int, j: int) -> Rect:
        """The rectangle of node ``(level, i, j)``; bounds-checked.

        Geometry never changes under :meth:`refresh`, so each rectangle
        is built once per coordinate and shared from then on.
        """
        rect = self._rects.get((level, i, j))
        if rect is None:
            side = 1 << level
            if not (0 <= level <= self.depth and 0 <= i < side and 0 <= j < side):
                raise IndexError(f"no node at level={level}, i={i}, j={j}")
            w = self.bounds.width / side
            h = self.bounds.height / side
            rect = self._rects[level, i, j] = Rect(
                self.bounds.x1 + i * w,
                self.bounds.y1 + j * h,
                self.bounds.x1 + (i + 1) * w,
                self.bounds.y1 + (j + 1) * h,
            )
        return rect

    def is_leaf(self, node: RegionNode) -> bool:
        """True if the node is a single statistics-grid cell."""
        return node.level == self.depth

    def children(self, node: RegionNode) -> tuple[RegionNode, ...]:
        """The four child nodes (quadrants); empty tuple for leaves."""
        if self.is_leaf(node):
            return ()
        level = node.level + 1
        i2, j2 = node.i * 2, node.j * 2
        return tuple(
            self.node(level, i2 + di, j2 + dj)
            for di in (0, 1)
            for dj in (0, 1)
        )

    def num_nodes(self) -> int:
        """Total node count ``(4^(depth+1) − 1) / 3``."""
        return (4 ** (self.depth + 1) - 1) // 3

    def refresh(self, grid: StatisticsGrid) -> None:
        """Aggregate every level from ``grid`` (same α and bounds), bottom-up;
        the rectangles stay.  At every α an adapt round uses, this costs
        less than re-aggregating only the changed cells' ancestors."""
        self._n_levels[self.depth] = grid.n.astype(np.float64)
        self._m_levels[self.depth] = grid.m.astype(np.float64)
        self._s_levels[self.depth] = grid.s.astype(np.float64)
        for level in range(self.depth - 1, -1, -1):
            n_child = self._n_levels[level + 1]
            n_parent = _block_sum(n_child)
            momentum = _block_sum(n_child * self._s_levels[level + 1])
            with np.errstate(invalid="ignore", divide="ignore"):
                s_parent = np.where(n_parent > 0, momentum / np.maximum(n_parent, 1e-300), 0.0)
            self._n_levels[level] = n_parent
            self._m_levels[level] = _block_sum(self._m_levels[level + 1])
            self._s_levels[level] = s_parent

    def level_stats(self, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(n, m, s)`` statistic arrays of one level (2^d × 2^d).

        Array consumers read node statistics straight from these
        (the same float64 values :meth:`node` boxes into
        :class:`RegionNode` objects) instead of materializing nodes.
        """
        if not (0 <= level <= self.depth):
            raise IndexError(f"no level {level} in a depth-{self.depth} hierarchy")
        return (
            self._n_levels[level],
            self._m_levels[level],
            self._s_levels[level],
        )


def _block_sum(array: np.ndarray) -> np.ndarray:
    """Sum each 2x2 block of a 2^k-square array (one level of aggregation),
    in the fixed order ``((c[2i,2j] + c[2i,2j+1]) + c[2i+1,2j]) + c[2i+1,2j+1]``."""
    return (
        (array[0::2, 0::2] + array[0::2, 1::2]) + array[1::2, 0::2]
    ) + array[1::2, 1::2]
