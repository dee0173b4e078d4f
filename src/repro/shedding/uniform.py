"""Uniform-Δ baseline: one system-wide inaccuracy threshold.

The paper's non-region-aware alternative: THROTLOOP still chooses the
throttle fraction z, but every node uses the same Δ — the smallest
threshold whose update-reduction ``f(Δ)`` meets the budget.  No space
partitioning, no per-region throttlers: a one-region plan.
"""

from __future__ import annotations

from repro.core.plan import SheddingPlan
from repro.core.reduction import ReductionFunction
from repro.core.statistics_grid import StatisticsGrid
from repro.shedding.policy import SheddingPolicy


class UniformDeltaPolicy(SheddingPolicy):
    """A single inaccuracy threshold chosen to retain z of the updates."""

    name = "Uniform Delta"

    def __init__(self, reduction: ReductionFunction) -> None:
        self.reduction = reduction
        self.delta: float | None = None

    def adapt(self, grid: StatisticsGrid, z: float) -> SheddingPlan:
        self.delta = self.reduction.delta_for_fraction(z)
        self.plan = SheddingPlan.uniform(grid.bounds, self.delta)
        return self.plan

    def describe(self) -> str:
        if self.delta is None:
            return "Uniform Delta (not adapted yet)"
        return f"Uniform Delta (delta={self.delta:.2f} m)"
