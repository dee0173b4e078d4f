"""One-node linear dead reckoning: the oracle for ``DeadReckoningFleet``.

A :class:`LinearTracker` holds one node's last-sent model as Python
floats and decides one sample at a time: report when the distance
between the model's prediction and the true position exceeds Δ.
"""

from __future__ import annotations

import math


class LinearTracker:
    """The last-sent ``(position, velocity, time)`` of one node."""

    def __init__(self) -> None:
        self.model: tuple[float, float, float, float, float] | None = None

    def deviation(self, t: float, x: float, y: float) -> float:
        """Distance from the model's prediction at ``t`` to ``(x, y)``."""
        px, py, vx, vy, sent = self.model
        return math.hypot(px + vx * (t - sent) - x, py + vy * (t - sent) - y)

    def observe(self, t: float, x: float, y: float, vx: float, vy: float, threshold: float) -> bool:
        """Process one sample; True when the node reports."""
        send = self.model is None or self.deviation(t, x, y) > threshold
        if send:
            self.model = (x, y, vx, vy, t)
        return send
