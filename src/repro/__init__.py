"""repro: a reproduction of LIRA (Gedik, Liu, Wu, Yu — ICDE 2007).

LIRA is a lightweight, region-aware update load shedder for mobile
continual-query systems.  This package implements the full system —
the three LIRA algorithms (GRIDREDUCE, GREEDYINCREMENT, THROTLOOP), the
baseline policies the paper compares against, and every substrate the
evaluation needs (road networks, vehicle traces, dead reckoning, range
CQ workloads, a CQ server with a bounded input queue, base stations).

Quickstart::

    from repro import LiraConfig, build_scenario
    from repro.sim import Simulation, SimulationConfig

    scenario = build_scenario(n_nodes=1000)
    result = Simulation(
        scenario, "lira", LiraConfig(l=100, alpha=64), SimulationConfig(z=0.5)
    ).run()
    print(result.mean_containment_error)
"""

import importlib
from typing import Any

__version__ = "1.0.0"

#: The public names by home module.  Each is imported on first access
#: (PEP 562), so a program that reads none of them, such as the live
#: service, loads neither the simulator nor the linter.
_HOMES = {
    "repro.core": (
        "AnalyticReduction", "LiraConfig", "LiraLoadShedder", "PiecewiseLinearReduction",
        "SheddingPlan", "StatisticsGrid", "ThrotLoop", "greedy_increment", "grid_reduce",
        "measure_reduction_from_trace",
    ),
    "repro.faults": ("FaultInjector", "FaultSpec"),
    "repro.server": ("LiraSystem",),
    "repro.shedding": ("LiraGridPolicy", "RandomDropPolicy", "UniformDeltaPolicy"),
    "repro.sim": ("Simulation", "SimulationConfig", "build_scenario"),
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names}

__all__ = [*_HOME_OF, "__version__"]


def __getattr__(name: str) -> Any:
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(_HOME_OF[name]), name)
    return value
