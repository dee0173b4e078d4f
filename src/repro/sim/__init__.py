"""Closed-loop simulation harness and experiment scenarios."""

from repro.sim.dynamics import QueryTimeline, TimedQuery
from repro.sim.scenario import Scenario, build_scenario, make_policies
from repro.sim.simulation import (
    Simulation,
    SimulationConfig,
    SimulationResult,
    reference_update_count,
)

__all__ = [
    "QueryTimeline",
    "Scenario",
    "TimedQuery",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "build_scenario",
    "make_policies",
    "reference_update_count",
]
