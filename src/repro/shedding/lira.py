"""The full LIRA policy: region-aware partitioning + optimal throttlers."""

from __future__ import annotations

import numpy as np

from repro.core import LiraConfig, LiraLoadShedder, ReductionFunction
from repro.core.plan import SheddingPlan
from repro.core.statistics_grid import StatisticsGrid
from repro.shedding.policy import SheddingPolicy


class LiraPolicy(SheddingPolicy):
    """Region-aware load shedding via GRIDREDUCE + GREEDYINCREMENT.

    Thin policy adapter around :class:`~repro.core.LiraLoadShedder` so
    the simulator can swap LIRA against the baselines uniformly.
    """

    name = "LIRA"

    def __init__(
        self,
        config: LiraConfig,
        reduction: ReductionFunction,
    ) -> None:
        self.config = config
        self.shedder = LiraLoadShedder(config, reduction)
        self.alpha = config.resolved_alpha
        self.plan: SheddingPlan | None = None

    def adapt(self, grid: StatisticsGrid, z: float) -> None:
        self.shedder.set_throttle_fraction(z)
        self.plan = self.shedder.adapt(grid)

    def thresholds_for(self, positions: np.ndarray) -> np.ndarray:
        if self.plan is None:
            raise RuntimeError("adapt() must run before thresholds_for()")
        return self.plan.thresholds_for(positions)

    def describe(self) -> str:
        return (
            f"LIRA(l={self.config.l}, alpha={self.alpha}, "
            f"fairness={self.config.fairness})"
        )
