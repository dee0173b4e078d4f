"""Dead-reckoning substrate (source-side update actuation)."""

from repro.motion.dead_reckoning import DeadReckoningFleet

__all__ = ["DeadReckoningFleet"]
