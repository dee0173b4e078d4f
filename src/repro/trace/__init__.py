"""Mobile-node trace substrate: vehicle simulation and trace containers."""

from repro.trace.fleet import FleetEngine
from repro.trace.generator import TraceGenerator, generate_default_trace
from repro.trace.trace import TRACE_FORMAT_VERSION, Trace

__all__ = [
    "FleetEngine",
    "TRACE_FORMAT_VERSION",
    "Trace",
    "TraceGenerator",
    "generate_default_trace",
]
