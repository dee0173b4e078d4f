"""repro: a reproduction of LIRA (Gedik, Liu, Wu, Yu — ICDE 2007).

LIRA is a lightweight, region-aware update load shedder for mobile
continual-query systems.  This package implements the full system —
the three LIRA algorithms (GRIDREDUCE, GREEDYINCREMENT, THROTLOOP), the
baseline policies the paper compares against, and every substrate the
evaluation needs (road networks, vehicle traces, dead reckoning, range
CQ workloads, a CQ server with a bounded input queue, base stations).

Quickstart::

    from repro import LiraConfig, LiraPolicy, build_scenario
    from repro.sim import Simulation, SimulationConfig

    scenario = build_scenario(n_nodes=1000)
    policy = LiraPolicy(LiraConfig(l=100, alpha=64), scenario.reduction)
    result = Simulation(
        scenario.trace, scenario.queries, policy, SimulationConfig(z=0.5)
    ).run()
    print(result.mean_containment_error)
"""

from repro.core import (
    AnalyticReduction,
    LiraConfig,
    LiraLoadShedder,
    PiecewiseLinearReduction,
    SheddingPlan,
    StatisticsGrid,
    ThrotLoop,
    greedy_increment,
    grid_reduce,
    measure_reduction_from_trace,
)
from repro.faults import FaultInjector, FaultSpec
from repro.server import LiraSystem
from repro.shedding import (
    LiraGridPolicy,
    LiraPolicy,
    RandomDropPolicy,
    UniformDeltaPolicy,
)
from repro.sim import Simulation, SimulationConfig, build_scenario, make_policies

__version__ = "1.0.0"

__all__ = [
    "AnalyticReduction",
    "FaultInjector",
    "FaultSpec",
    "LiraConfig",
    "LiraGridPolicy",
    "LiraLoadShedder",
    "LiraPolicy",
    "LiraSystem",
    "PiecewiseLinearReduction",
    "RandomDropPolicy",
    "SheddingPlan",
    "Simulation",
    "SimulationConfig",
    "StatisticsGrid",
    "ThrotLoop",
    "UniformDeltaPolicy",
    "build_scenario",
    "greedy_increment",
    "grid_reduce",
    "make_policies",
    "measure_reduction_from_trace",
    "__version__",
]
