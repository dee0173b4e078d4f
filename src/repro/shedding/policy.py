"""Shedding-policy interface: every policy is a plan source.

A policy answers two questions each adaptation period:

1. Which shedding plan does the server broadcast?  Each node uses the
   threshold of the region it is in (source-actuated shedding).
2. What fraction of arriving updates does the server admit?
   (server-actuated shedding — random dropping)

LIRA and its downgraded variants act through (1) and admit everything;
Random Drop acts through (2) under a one-region plan at Δ⊢.  A shard of
:class:`~repro.server.LiraSystem` installs whatever plan its policy
serves and admits at its fraction, so every policy runs at any K.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.core.plan import SheddingPlan
    from repro.core.statistics_grid import StatisticsGrid


class SheddingPolicy(ABC):
    """Base class for update load-shedding policies."""

    #: Human-readable policy name, used in experiment tables.
    name: str = "abstract"

    #: Statistics-grid resolution the policy requires from the caller
    #: (α cells per side); policies that ignore statistics accept any.
    alpha: int = 1

    #: The plan the last :meth:`adapt` served (``None`` before it).
    plan: SheddingPlan | None = None

    @abstractmethod
    def adapt(self, grid: StatisticsGrid, z: float) -> SheddingPlan:
        """Recompute the plan for throttle fraction ``z`` and return it.

        Called once per adaptation period with fresh grid statistics;
        the plan is also kept as :attr:`plan`.
        """

    def thresholds_for(self, positions: np.ndarray) -> np.ndarray:
        """Per-node inaccuracy thresholds for nodes at ``positions`` (n, 2):
        the Δ of each node's region in the plan last served."""
        if self.plan is None:
            raise RuntimeError("adapt() must run before thresholds_for()")
        return self.plan.thresholds_for(positions)

    def admission_fraction(self) -> float:
        """Fraction of arriving updates the server admits (default: all)."""
        return 1.0

    def describe(self) -> str:
        """One-line description for logs and experiment output."""
        return self.name
