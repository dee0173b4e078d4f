"""Continual range queries.

The paper's workload consists of range CQs: axis-aligned squares whose
side length is drawn uniformly from ``[w/2, w]`` for a *side length
parameter* ``w``.  A query's result set is the set of mobile nodes whose
(known) position falls inside its rectangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo import Rect


@dataclass(frozen=True, slots=True)
class RangeQuery:
    """A continual range query over the monitoring space."""

    query_id: int
    rect: Rect

    def evaluate(self, positions: np.ndarray) -> np.ndarray:
        """Node ids (row indices of ``positions``) inside the query rectangle.

        ``positions`` has shape ``(n, 2)``.  Uses the same half-open
        containment convention as :class:`~repro.geo.Rect`.
        """
        positions = np.asarray(positions, dtype=np.float64)
        x, y = positions[:, 0], positions[:, 1]
        mask = (
            (x >= self.rect.x1)
            & (x < self.rect.x2)
            & (y >= self.rect.y1)
            & (y < self.rect.y2)
        )
        return np.flatnonzero(mask)


def evaluate_queries(
    queries: list[RangeQuery], positions: np.ndarray
) -> list[np.ndarray]:
    """Evaluate every query against one position snapshot.

    Returns one index array per query, in query order.  This brute-force
    helper is the reference implementation (and the test oracle); the
    server evaluates through the cell -> query index of
    :class:`~repro.queries.batch.QueryEvalKernel`.
    """
    return [q.evaluate(positions) for q in queries]
