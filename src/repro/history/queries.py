"""Ad-hoc snapshot and historical queries over the trajectory archive.

These are the query classes that motivate the fairness threshold: they
may land *anywhere* in space and time, so their accuracy depends on the
whole population staying tracked — which the distributed, query-driven
alternatives in the paper's related work cannot provide, and which LIRA
preserves by bounding every region's throttler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo import Rect
from repro.history.store import TrajectoryStore
from repro.queries.range_query import RangeQuery


@dataclass(frozen=True, slots=True)
class SnapshotQuery:
    """An ad-hoc range query at a (possibly past) time instant."""

    rect: Rect
    time: float

    def evaluate(self, store: TrajectoryStore) -> np.ndarray:
        """Node ids believed inside the rectangle at ``time``."""
        # Unknown nodes are NaN rows, which compare outside every rect.
        return self.evaluate_truth(store.believed_snapshot(self.time))

    def evaluate_truth(self, positions: np.ndarray) -> np.ndarray:
        """Ground-truth result from true positions at the query time."""
        return RangeQuery(0, self.rect).evaluate(positions)


def snapshot_position_error(
    store: TrajectoryStore, true_positions: np.ndarray, t: float
) -> float:
    """Mean believed-vs-true distance over the whole population at ``t``.

    The quantity the fairness threshold bounds: with |Δᵢ − Δⱼ| ≤ Δ⇔ no
    node's belief error can exceed (min Δ + Δ⇔) regardless of where the
    installed CQs are.
    """
    believed = store.believed_snapshot(t)
    valid = ~np.isnan(believed[:, 0])
    if not valid.any():
        return float("nan")
    distances = np.linalg.norm(believed[valid] - true_positions[valid], axis=1)
    return float(distances.mean())
