"""Linear motion models for dead reckoning.

The paper adopts piece-wise linear approximation of node movement
(Wolfson et al. [19]): a node reports ``(position, velocity, time)`` and
the server extrapolates ``position + velocity * (t - time)`` until the
next report.  LIRA uses the report-triggering inaccuracy threshold Δ as
its control knob; the model itself is deliberately simple and the paper
notes the particular motion model is not important.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geo import Point


@dataclass(frozen=True, slots=True)
class LinearMotionModel:
    """A linear motion model anchored at a report.

    ``predict(t)`` extrapolates the reported position along the reported
    velocity.  Immutable: a new report produces a new model.
    """

    position: Point
    velocity: Point
    time: float

    def predict(self, t: float) -> Point:
        """Predicted position at time ``t`` (extrapolation is unclamped)."""
        dt = t - self.time
        return Point(
            self.position.x + self.velocity.x * dt,
            self.position.y + self.velocity.y * dt,
        )

    def deviation(self, t: float, actual: Point) -> float:
        """Distance between the prediction at ``t`` and the true position."""
        return self.predict(t).distance_to(actual)
