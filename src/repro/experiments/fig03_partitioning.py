"""Figure 3: illustration of the (α, l)-partitioning.

The paper shows that GRIDREDUCE produces small regions where the space
is heterogeneous (dense nodes and queries) and keeps large regions where
splitting would not help — e.g. regions with zero queries, or uniform
regions.  We regenerate that evidence quantitatively:

* the distribution of region sizes (count per quad-tree level);
* the mean query count of the largest regions versus the smallest
  (large kept regions should be query-poor or homogeneous);
* an ASCII rendering of the partitioning for eyeballing.
"""

from __future__ import annotations

import numpy as np

from repro.core import RegionHierarchy, StatisticsGrid, grid_reduce
from repro.experiments.base import ExperimentResult
from repro.experiments.common import MEDIUM, ExperimentScale


def run_fig03(
    scale: ExperimentScale = MEDIUM, z: float = 0.5
) -> ExperimentResult:
    """Partition the scenario and summarize region-size structure."""
    scenario = scale.scenario()
    trace = scenario.trace
    grid = StatisticsGrid.from_snapshot(
        trace.bounds, scale.alpha, trace.snapshot(0), trace.speeds(0), scenario.queries
    )
    hierarchy = RegionHierarchy(grid)
    partitioning = grid_reduce(
        hierarchy, scale.l, z, scenario.reduction.piecewise(95)
    )
    levels = np.array([level for level, _, _ in partitioning.coords])
    max_level = hierarchy.depth
    xs = list(range(max_level + 1))
    counts = [int((levels == lv).sum()) for lv in xs]
    mean_m = []
    mean_n = []
    for lv in xs:
        nodes = [reg for reg, level in zip(partitioning.regions, levels) if level == lv]
        mean_m.append(float(np.mean([nd.m for nd in nodes])) if nodes else float("nan"))
        mean_n.append(float(np.mean([nd.n for nd in nodes])) if nodes else float("nan"))
    result = ExperimentResult(
        experiment_id="fig03",
        title="(alpha, l)-partitioning structure (region counts by quad-tree level)",
        x_label="quad-tree level (0=whole space)",
        x=[float(v) for v in xs],
        notes=f"{partitioning.num_regions} regions from l={scale.l}; "
        "large (low-level) regions should carry few queries or be homogeneous",
    )
    result.add_series("regions at level", counts)
    result.add_series("mean queries m", mean_m)
    result.add_series("mean nodes n", mean_n)
    return result
