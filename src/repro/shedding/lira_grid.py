"""Lira-Grid baseline: uniform partitioning, optimal throttlers.

The paper's downgraded LIRA variant: it lacks GRIDREDUCE and instead
uses equal-sized shedding regions from a plain *l-partitioning*
(√l × √l uniform grid), but still runs GREEDYINCREMENT to set the
update throttlers.  Comparing it against full LIRA isolates the value
of region-aware partitioning (paper Figure 8).
"""

from __future__ import annotations

from repro.core.config import LiraConfig
from repro.core.greedy import greedy_increment
from repro.core.gridreduce import uniform_partitioning
from repro.core.plan import SheddingPlan
from repro.core.reduction import ReductionFunction
from repro.core.statistics_grid import StatisticsGrid
from repro.shedding.policy import SheddingPolicy


class LiraGridPolicy(SheddingPolicy):
    """Uniform l-partitioning + GREEDYINCREMENT throttler setting."""

    name = "Lira-Grid"

    def __init__(
        self,
        config: LiraConfig,
        reduction: ReductionFunction,
    ) -> None:
        self.config = config
        self.reduction = reduction.piecewise(config.n_segments)
        self.alpha = config.resolved_alpha

    def adapt(self, grid: StatisticsGrid, z: float) -> SheddingPlan:
        partitioning = uniform_partitioning(grid, self.config.l)
        result = greedy_increment(
            partitioning.regions,
            self.reduction,
            z,
            increment=self.config.increment,
            fairness=self.config.fairness,
            use_speed=self.config.use_speed,
        )
        self.plan = SheddingPlan.from_regions(
            bounds=grid.bounds,
            regions=partitioning.regions,
            thresholds=result.thresholds,
            resolution=grid.alpha,
        )
        return self.plan

    def describe(self) -> str:
        side = max(int(self.config.l**0.5), 1)
        return f"Lira-Grid(l={self.config.l} -> {side}x{side} uniform regions)"
