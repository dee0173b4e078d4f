"""Mobile-node trace substrate: vehicle simulation and trace containers."""

from repro.trace.fleet import FleetEngine
from repro.trace.generator import TraceGenerator, generate_default_trace
from repro.trace.trace import Trace

__all__ = [
    "FleetEngine",
    "Trace",
    "TraceGenerator",
    "generate_default_trace",
]
