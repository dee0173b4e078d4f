"""Closed-loop simulation harness and experiment scenarios."""

from repro.sim.dynamics import QueryTimeline, TimedQuery
from repro.sim.scenario import Scenario, build_scenario
from repro.sim.simulation import (
    Deployment,
    Simulation,
    SimulationConfig,
    SimulationResult,
    reference_update_count,
)

__all__ = [
    "Deployment",
    "QueryTimeline",
    "Scenario",
    "TimedQuery",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "build_scenario",
    "reference_update_count",
]
