"""Fault injection for the server–network loop (see :mod:`repro.faults.channel`)."""

from repro.faults.channel import (
    DELAYED,
    DELIVER,
    LOST,
    FaultInjector,
    FaultSpec,
)

__all__ = [
    "DELAYED",
    "DELIVER",
    "LOST",
    "FaultInjector",
    "FaultSpec",
]
