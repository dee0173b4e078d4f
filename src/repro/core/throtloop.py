"""THROTLOOP: adaptive setting of the throttle fraction z (Section 3.4).

The controller observes the position-update input queue and adjusts the
throttle fraction so that the update arrival rate λ matches what the
server can process.  Under an M/M/1 model, keeping the *average* queue
length within a maximum queue size B requires utilization
``ρ = λ/μ <= 1 − 1/B``; THROTLOOP divides the current z by the
normalized utilization ``u = ρ / (1 − 1/B)`` each period:

    z ← min(1, z_prev / u)

so overload (u > 1) shrinks the budget and slack (u < 1) grows it back
toward 1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

logger = logging.getLogger(__name__)


@dataclass
class ThrotLoop:
    """The throttle-fraction feedback controller.

    ``queue_capacity`` is B, the maximum input-queue size.  ``z_floor``
    guards against a single pathological measurement collapsing the
    budget to zero (the paper's experiments never drive z below ~0.25,
    where all alternatives converge anyway).  ``reopen_factor`` bounds
    how fast the budget reopens after a period with *no* arrivals, where
    the control law is undefined — the symmetric guard against a single
    empty measurement whipsawing z fully open.

    ``utilization_target`` optionally overrides the derived ``1 − 1/B``
    target.  The paper's target only *stabilizes* the queue at whatever
    length it already has (λ ≈ μ leaves a full queue full forever); a
    deployment with a latency objective sets e.g. 0.8 so sustained
    headroom exists to drain backlog after an overload episode.
    """

    queue_capacity: int
    z: float = 1.0
    z_floor: float = 0.01
    smoothing: float | None = None
    reopen_factor: float = 2.0
    utilization_target: float | None = None
    _smoothed_utilization: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.queue_capacity < 2:
            raise ValueError("queue_capacity B must be >= 2")
        if not (0.0 < self.z <= 1.0):
            raise ValueError("initial z must be in (0, 1]")
        if not (0.0 < self.z_floor <= 1.0):
            raise ValueError("z_floor must be in (0, 1]")
        if self.smoothing is not None and not (0.0 < self.smoothing <= 1.0):
            raise ValueError("smoothing must be in (0, 1] (or None)")
        if self.reopen_factor <= 1.0:
            raise ValueError("reopen_factor must be > 1")
        if self.utilization_target is not None and not (
            0.0 < self.utilization_target <= 1.0
        ):
            raise ValueError("utilization_target must be in (0, 1] (or None)")

    @property
    def target_utilization(self) -> float:
        """The stability threshold: ``1 − 1/B``, unless overridden."""
        if self.utilization_target is not None:
            return self.utilization_target
        return 1.0 - 1.0 / self.queue_capacity

    def step(self, arrival_rate: float, service_rate: float) -> float:
        """One periodic adjustment from measured λ and μ; returns new z.

        ``service_rate <= 0`` is a measured condition, not a caller bug:
        a live server can report μ = 0 over a stalled period.  It maps
        to the same utilization semantics as
        :attr:`~repro.server.cq_server.LoadMeasurement.utilization` —
        infinitely utilized under any load (the budget collapses to
        ``z_floor``), idle at zero load (the gradual-reopen path) — so
        the control loop rides through instead of crashing.
        """
        if arrival_rate < 0:
            raise ValueError("arrival_rate must be non-negative")
        if service_rate <= 0:
            utilization = float("inf") if arrival_rate > 0 else 0.0
            return self.step_utilization(utilization)
        return self.step_utilization(arrival_rate / service_rate)

    def step_utilization(self, utilization: float) -> float:
        """One periodic adjustment from measured utilization ρ = λ/μ.

        With ``smoothing`` set (EWMA weight β on the new sample — an
        extension beyond the paper), a single noisy measurement cannot
        whipsaw the budget; β = 1 or ``None`` is the paper's raw control
        law.
        """
        if utilization < 0:
            raise ValueError("utilization must be non-negative")
        if math.isinf(utilization):
            # A stalled-server measurement (μ = 0 under load): the server
            # is infinitely utilized, so the budget collapses straight to
            # the floor.  Skip the EWMA update — folding inf into the
            # smoothed state would pin every later measurement at inf.
            previous = self.z
            self.z = self.z_floor
            if self.z < previous:
                logger.debug(
                    "throttle collapsed: rho=inf -> z %.3f -> %.3f",
                    previous, self.z,
                )
            return self.z
        if self.smoothing is not None:
            if self._smoothed_utilization is None:
                self._smoothed_utilization = utilization
            else:
                self._smoothed_utilization = (
                    self.smoothing * utilization
                    + (1.0 - self.smoothing) * self._smoothed_utilization
                )
            utilization = self._smoothed_utilization
        u = utilization / self.target_utilization
        previous = self.z
        if u <= 0:
            # No arrivals at all: the law z/u is undefined, but snapping
            # the budget fully open would whipsaw — one empty measurement
            # period (a lossy uplink, a churn dip) and the next overload
            # period re-sheds from scratch.  Reopen gradually instead,
            # bounded by reopen_factor per period.
            self.z = min(1.0, self.z * self.reopen_factor)
        else:
            self.z = min(1.0, max(self.z_floor, self.z / u))
        if self.z < previous:
            logger.debug(
                "throttle tightened: rho=%.3f -> z %.3f -> %.3f",
                utilization, previous, self.z,
            )
        return self.z
