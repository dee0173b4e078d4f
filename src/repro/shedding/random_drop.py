"""Random Drop baseline: server-actuated dropping of excess updates.

Every node reports at the ideal resolution Δ⊢ (a one-region plan); the
overloaded server admits only a fraction z of the arriving updates and
discards the rest at the input queue, uniformly at random.  This is what happens *without*
any intelligent load shedding — the paper's worst performer, included
to quantify the value of source-actuated, region-aware shedding.
"""

from __future__ import annotations

from repro.core.plan import SheddingPlan
from repro.core.statistics_grid import StatisticsGrid
from repro.shedding.policy import SheddingPolicy


class RandomDropPolicy(SheddingPolicy):
    """Δ⊢ everywhere; the server randomly drops ``1 − z`` of arrivals."""

    name = "Random Drop"

    def __init__(self, delta_min: float = 5.0) -> None:
        if delta_min < 0:
            raise ValueError("delta_min must be non-negative")
        self.delta_min = delta_min
        self.z = 1.0

    def adapt(self, grid: StatisticsGrid, z: float) -> SheddingPlan:
        if not (0.0 <= z <= 1.0):
            raise ValueError("z must be in [0, 1]")
        self.z = z
        self.plan = SheddingPlan.uniform(grid.bounds, self.delta_min)
        return self.plan

    def admission_fraction(self) -> float:
        return self.z

    def describe(self) -> str:
        return f"Random Drop (admit {self.z:.0%} of updates)"
