"""Dead-reckoning / motion-modeling substrate (source-side update actuation)."""

from repro.motion.dead_reckoning import DeadReckoningFleet
from repro.motion.linear import LinearMotionModel

__all__ = [
    "DeadReckoningFleet",
    "LinearMotionModel",
]
