"""Safe-region monitoring: the related-work alternative paradigm.

The paper's related work discusses distributed CQ systems [1, 3, 7]
where "position updates are only received if they affect a query
result" — each node gets a *safe region* and stays silent inside it.
LIRA can mimic this by setting Δ⊣ very large; the cost is that snapshot
and historic queries become unanswerable since far-from-query nodes are
effectively untracked.

This policy implements that paradigm as an extra baseline, served as a
LIRA plan: every statistics-grid cell is one region whose threshold is
its distance to the nearest installed query (clamped below by Δ⊢) — a
node moving less than that cannot change any result.  A cell that meets
a query is at distance 0, so its nodes use Δ⊢.  The policy ignores the
throttle fraction: its update volume is workload-driven, not
budget-driven (which is precisely what it cannot control under overload
— LIRA's reason for existing).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import LiraConfig
from repro.core.greedy import RegionStats
from repro.core.plan import SheddingPlan
from repro.core.statistics_grid import StatisticsGrid
from repro.geo import Rect
from repro.queries import RangeQuery
from repro.shedding.policy import SheddingPolicy


class SafeRegionPolicy(SheddingPolicy):
    """Per-cell thresholds from distance to the nearest query.

    A cell's distance is the least distance of any point in it, so a
    node's threshold never exceeds its own distance to the queries:
    the safe-region guarantee holds for every node.  ``slack`` scales
    the distance into a threshold conservatively (reports fire *before*
    a node could have crossed into a result), and ``delta_cap``
    optionally bounds the threshold — ``None`` reproduces the pure
    paradigm where far nodes are nearly untracked.  ``config`` gives Δ⊢
    and the grid's α.
    """

    name = "Safe Region"

    def __init__(
        self,
        queries: list[RangeQuery],
        config: LiraConfig,
        slack: float = 0.5,
        delta_cap: float | None = None,
    ) -> None:
        if not queries:
            raise ValueError("safe-region monitoring requires installed queries")
        if not (0.0 < slack <= 1.0):
            raise ValueError("slack must be in (0, 1]")
        if delta_cap is not None and delta_cap < config.delta_min:
            raise ValueError("delta_cap must be >= delta_min")
        self.queries = queries
        self.delta_min = config.delta_min
        self.alpha = config.resolved_alpha
        self.slack = slack
        self.delta_cap = delta_cap

    def adapt(self, grid: StatisticsGrid, z: float) -> SheddingPlan:
        """The cell plan, built on the first call: safe regions depend
        on the queries, not on load statistics or ``z``."""
        if self.plan is None:
            self.plan = self._cell_plan(grid)
        return self.plan

    def _cell_plan(self, grid: StatisticsGrid) -> SheddingPlan:
        # One region per cell, row-major in x, with the floats a 1×1 block
        # of uniform_partitioning gets: edges as _block_rect computes them,
        # s = (n·s)/n (0 where n = 0).
        bounds, alpha = grid.bounds, grid.alpha
        steps = np.arange(alpha + 1)
        xs = bounds.x1 + steps * (bounds.width / alpha)
        ys = bounds.y1 + steps * (bounds.height / alpha)
        lo_x, lo_y = np.meshgrid(xs[:-1], ys[:-1], indexing="ij")
        hi_x, hi_y = np.meshgrid(xs[1:], ys[1:], indexing="ij")
        x1, y1, x2, y2 = (a.ravel() for a in (lo_x, lo_y, hi_x, hi_y))
        n = grid.n.ravel()
        s = np.divide(n * grid.s.ravel(), n, out=np.zeros_like(n), where=n > 0)
        cells = [
            RegionStats(Rect(*edges), n=cn, m=cm, s=cs)
            for *edges, cn, cm, cs in zip(
                *(a.tolist() for a in (x1, y1, x2, y2, n, grid.m.ravel(), s))
            )
        ]
        nearest = np.full(len(cells), np.inf)
        for query in self.queries:
            rect = query.rect
            dx = np.maximum(np.maximum(rect.x1 - x2, x1 - rect.x2), 0.0)
            dy = np.maximum(np.maximum(rect.y1 - y2, y1 - rect.y2), 0.0)
            nearest = np.minimum(nearest, np.hypot(dx, dy))
        thresholds = np.maximum(nearest * self.slack, self.delta_min)
        if self.delta_cap is not None:
            thresholds = np.minimum(thresholds, self.delta_cap)
        return SheddingPlan.from_regions(
            bounds=grid.bounds,
            regions=cells,
            # reprolint: disable=REP020 - the paradigm tracks far nodes
            # beyond Δ⊣ on purpose; Δ⊢ is the only bound it keeps.
            thresholds=thresholds,
            resolution=grid.alpha,
        )

    def describe(self) -> str:
        cap = f", cap={self.delta_cap}" if self.delta_cap is not None else ""
        return f"Safe Region (slack={self.slack}{cap}, {len(self.queries)} queries)"
