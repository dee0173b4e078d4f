"""Dead-reckoning / motion-modeling substrate (source-side update actuation)."""

from repro.motion.dead_reckoning import DeadReckoningFleet, DeadReckoningTracker
from repro.motion.linear import LinearMotionModel, MotionReport

__all__ = [
    "DeadReckoningFleet",
    "DeadReckoningTracker",
    "LinearMotionModel",
    "MotionReport",
]
