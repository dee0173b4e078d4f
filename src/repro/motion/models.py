"""Alternative motion models for dead reckoning.

The paper adopts piece-wise linear motion modeling but notes that "more
advanced models also exist [2]" and that "the particular motion model
used is not of importance" to LIRA — the inaccuracy threshold Δ is the
interface.  This module makes that pluggability concrete: a
:class:`MotionModelProtocol`, a constant-acceleration
:class:`SecondOrderMotionModel`, a model-agnostic
:class:`ModelDrivenTracker`, and a utility comparing the update volume
different models produce at equal Δ (better models → fewer updates →
more headroom before shedding is needed at all).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol


from repro.geo import Point
from repro.motion.linear import LinearMotionModel


class MotionModelProtocol(Protocol):
    """What a dead-reckoning motion model must provide."""

    def predict(self, t: float) -> Point: ...

    def deviation(self, t: float, actual: Point) -> float: ...


@dataclass(frozen=True, slots=True)
class SecondOrderMotionModel:
    """Constant-acceleration motion model.

    Extrapolates ``p + v·dt + a·dt²/2``.  The acceleration is estimated
    node-side from consecutive velocity samples; for vehicles braking
    into and accelerating out of turns this tracks longer than a linear
    model, deferring the deviation-triggered report.
    """

    position: Point
    velocity: Point
    acceleration: Point
    time: float

    def predict(self, t: float) -> Point:
        dt = t - self.time
        return Point(
            self.position.x + self.velocity.x * dt + 0.5 * self.acceleration.x * dt * dt,
            self.position.y + self.velocity.y * dt + 0.5 * self.acceleration.y * dt * dt,
        )

    def deviation(self, t: float, actual: Point) -> float:
        return self.predict(t).distance_to(actual)


def make_linear_model(
    t: float,
    position: Point,
    velocity: Point,
    previous_velocity: Point | None,
    sample_dt: float,
) -> LinearMotionModel:
    """Model factory for piece-wise linear dead reckoning (the default)."""
    return LinearMotionModel(position=position, velocity=velocity, time=t)


def make_second_order_model(
    t: float,
    position: Point,
    velocity: Point,
    previous_velocity: Point | None,
    sample_dt: float,
) -> SecondOrderMotionModel:
    """Model factory estimating acceleration from consecutive velocities."""
    if previous_velocity is None or sample_dt <= 0:
        acceleration = Point(0.0, 0.0)
    else:
        acceleration = Point(
            (velocity.x - previous_velocity.x) / sample_dt,
            (velocity.y - previous_velocity.y) / sample_dt,
        )
    return SecondOrderMotionModel(
        position=position, velocity=velocity, acceleration=acceleration, time=t
    )


class ModelDrivenTracker:
    """Dead reckoning with a pluggable motion-model factory.

    The protocol is unchanged — report when the model's prediction
    deviates from the true position by more than Δ — only the
    extrapolation differs.  The factory receives
    ``(t, position, velocity, previous_velocity, sample_dt)`` and
    returns a model.
    """

    def __init__(self, node_id: int, model_factory=make_linear_model) -> None:
        self.node_id = node_id
        self.model_factory = model_factory
        self.model: MotionModelProtocol | None = None
        self.reports_sent = 0
        self._last_velocity: Point | None = None
        self._last_sample_time: float | None = None

    def observe(
        self, t: float, position: Point, velocity: Point, threshold: float
    ) -> bool:
        """Process one sample; returns True when a report is sent."""
        if not threshold >= 0:  # rejects NaN too, which would never report again
            raise ValueError("threshold must be non-negative")
        sample_dt = (
            t - self._last_sample_time if self._last_sample_time is not None else 0.0
        )
        send = self.model is None or self.model.deviation(t, position) > threshold
        if send:
            self.model = self.model_factory(
                t, position, velocity, self._last_velocity, sample_dt
            )
            self.reports_sent += 1
        self._last_velocity = velocity
        self._last_sample_time = t
        return send


def compare_update_volume(
    samples: list[tuple[float, Point, Point]],
    threshold: float,
    factories: dict[str, object] | None = None,
) -> dict[str, int]:
    """Report counts per motion model over one node's sample stream.

    ``samples`` is a list of ``(t, position, velocity)``.  Defaults to
    comparing the linear and second-order models.
    """
    if factories is None:
        factories = {
            "linear": make_linear_model,
            "second-order": make_second_order_model,
        }
    counts = {}
    for name, factory in factories.items():
        tracker = ModelDrivenTracker(0, model_factory=factory)
        for t, position, velocity in samples:
            tracker.observe(t, position, velocity, threshold)
        counts[name] = tracker.reports_sent
    return counts
