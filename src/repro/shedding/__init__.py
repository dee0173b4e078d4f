"""Load-shedding policies: LIRA and the paper's three baselines."""

from repro.shedding.lira import LiraPolicy
from repro.shedding.lira_grid import LiraGridPolicy
from repro.shedding.policy import SheddingPolicy
from repro.shedding.random_drop import RandomDropPolicy
from repro.shedding.uniform import UniformDeltaPolicy

__all__ = [
    "LiraGridPolicy",
    "LiraPolicy",
    "RandomDropPolicy",
    "SheddingPolicy",
    "UniformDeltaPolicy",
]
