"""Per-node GRIDREDUCE: Algorithm 1 with CALCERRGAIN solved node by node.

The runtime :func:`repro.core.grid_reduce` scores quad-tree nodes in
batched array-kernel calls (and speculates on the heap frontier); this
is the same drill-down paying one scalar GREEDYINCREMENT per explored
node.  Partitionings — regions, their order, the expansion count —
must be bit-identical.
"""

from __future__ import annotations

import heapq

from repro.core.config import LiraConfig
from repro.core.greedy import RegionStats
from repro.core.gridreduce import PartitioningResult, effective_region_count
from repro.core.plan import SheddingPlan
from repro.core.quadtree import RegionHierarchy, RegionNode
from repro.core.reduction import PiecewiseLinearReduction, ReductionFunction
from repro.core.statistics_grid import StatisticsGrid

from tests.oracles.greedy import greedy_increment_reference


def calc_err_gain(
    hierarchy: RegionHierarchy,
    node: RegionNode,
    z: float,
    reduction: ReductionFunction,
    increment: float | None = None,
    use_speed: bool = True,
) -> float:
    """Accuracy gain ``V[t]`` of splitting ``node`` into its quadrants.

    ``E``: inaccuracy with one region (smallest Δ meeting ``f(Δ) <= z``).
    ``E_p``: inaccuracy with the four child regions sharing the node's
    proportional budget, solved by GREEDYINCREMENT.  Leaves cannot be
    split and have gain 0.
    """
    if hierarchy.is_leaf(node):
        return 0.0
    if node.m <= 0.0 or node.n <= 0.0:
        # No queries to protect, or no updates to shed: splitting cannot
        # change the achievable inaccuracy.
        return 0.0
    single_delta = reduction.delta_for_fraction(z)
    e_single = node.m * single_delta
    children = hierarchy.children(node)
    child_stats = [
        RegionStats(rect=c.rect, n=c.n, m=c.m, s=c.s) for c in children
    ]
    result = greedy_increment_reference(
        child_stats,
        reduction,
        z,
        increment=increment,
        fairness=None,
        use_speed=use_speed,
    )
    return max(0.0, e_single - result.inaccuracy)


def grid_reduce_reference(
    hierarchy: RegionHierarchy,
    l: int,
    z: float,
    reduction: ReductionFunction,
    increment: float | None = None,
    use_speed: bool = True,
) -> PartitioningResult:
    """Pop the explored node with the highest gain, push its quadrants."""
    if isinstance(reduction, PiecewiseLinearReduction) and increment is None:
        increment = reduction.segment_size
    target = effective_region_count(l)

    def entry(node: RegionNode, pushes: int) -> tuple:
        gain = calc_err_gain(hierarchy, node, z, reduction, increment, use_speed)
        return (-gain, pushes, node.level, node.i, node.j)

    # Equal gains pop in push order; quadrants push in row-major order.
    heap = [entry(hierarchy.root, 0)]
    pushes = 1
    finished: list[tuple[int, int, int]] = []
    expansions = 0
    while len(finished) + len(heap) < target and heap:
        _, _, level, i, j = heapq.heappop(heap)
        node = hierarchy.node(level, i, j)
        if hierarchy.is_leaf(node):
            finished.append((level, i, j))
            continue
        for child in hierarchy.children(node):
            heapq.heappush(heap, entry(child, pushes))
            pushes += 1
        expansions += 1
    # Regions in quad-tree coordinate order, like the runtime path.
    coords = sorted(finished + [item[2:] for item in heap])
    nodes = [hierarchy.node(*coord) for coord in coords]
    return PartitioningResult(
        regions=[RegionStats(rect=t.rect, n=t.n, m=t.m, s=t.s) for t in nodes],
        coords=coords,
        expansions=expansions,
    )


def reference_plan(
    config: LiraConfig, reduction: ReductionFunction, grid: StatisticsGrid, z: float
) -> SheddingPlan:
    """One from-scratch adaptation on the scalar kernels only."""
    pw = reduction.piecewise(config.n_segments)
    partitioning = grid_reduce_reference(
        RegionHierarchy(grid),
        config.l,
        z,
        pw,
        increment=config.increment,
        use_speed=config.use_speed,
    )
    result = greedy_increment_reference(
        partitioning.regions,
        pw,
        z,
        increment=config.increment,
        fairness=config.fairness,
        use_speed=config.use_speed,
    )
    return SheddingPlan.from_regions(
        bounds=grid.bounds,
        regions=partitioning.regions,
        thresholds=result.thresholds,
        resolution=grid.alpha,
    )
