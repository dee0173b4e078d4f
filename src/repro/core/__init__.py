"""LIRA core: the paper's contribution.

Exports the three algorithms (GRIDREDUCE, GREEDYINCREMENT, THROTLOOP),
the statistics grid they operate on, the update-reduction function
models, and the orchestrating :class:`LiraLoadShedder`.
"""

from repro.core.config import LiraConfig, auto_alpha
from repro.core.gridreduce import (
    PartitioningResult,
    effective_region_count,
    grid_reduce,
    uniform_partitioning,
)
from repro.core.greedy import GreedyResult, RegionStats, greedy_increment
from repro.core.greedy_vector import greedy_increment_vector
from repro.core.incremental import (
    IncrementalAdaptSession,
    IncrementalGridReduceCache,
)
from repro.core.plan import (
    PlanDelta,
    PlanEpochMismatch,
    SheddingPlan,
    SheddingRegion,
    clamp_thresholds,
)
from repro.core.quadtree import RegionHierarchy, RegionNode
from repro.core.reduction import (
    AnalyticReduction,
    PiecewiseLinearReduction,
    ReductionFunction,
    measure_reduction_from_trace,
)
from repro.core.shedder import AdaptationReport, LiraLoadShedder
from repro.core.statistics_grid import StatisticsGrid
from repro.core.throtloop import ThrotLoop

__all__ = [
    "AdaptationReport",
    "AnalyticReduction",
    "GreedyResult",
    "IncrementalAdaptSession",
    "IncrementalGridReduceCache",
    "LiraConfig",
    "LiraLoadShedder",
    "PartitioningResult",
    "PlanDelta",
    "PlanEpochMismatch",
    "PiecewiseLinearReduction",
    "ReductionFunction",
    "RegionHierarchy",
    "RegionNode",
    "RegionStats",
    "SheddingPlan",
    "SheddingRegion",
    "StatisticsGrid",
    "ThrotLoop",
    "auto_alpha",
    "clamp_thresholds",
    "effective_region_count",
    "greedy_increment",
    "greedy_increment_vector",
    "grid_reduce",
    "measure_reduction_from_trace",
    "uniform_partitioning",
]
