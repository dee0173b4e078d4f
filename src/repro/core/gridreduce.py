"""GRIDREDUCE: region-aware partitioning of the monitoring space (Algorithm 1).

Stage I (the region hierarchy) lives in :mod:`repro.core.quadtree`; this
module implements Stage II: starting from the root (the whole space),
repeatedly split the explored region with the highest *accuracy gain*
into its four quadrants until ``l`` shedding regions exist.

The accuracy gain ``V[t] = E[t] − E_p[t]`` of a node compares the
optimal query inaccuracy with one shedding region covering ``t``
(``E``) against four shedding regions at ``t``'s children (``E_p``),
both under the same proportional update budget — each computed by
solving the throttler-setting problem with GREEDYINCREMENT (CALCERRGAIN
in the paper).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import groupby, repeat
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.core.greedy import RegionStats, _as_piecewise
from repro.core.incremental import (
    KEY_WIDTH,
    GreedyHorizon,
    IncrementalGridReduceCache,
    NodeCoord,
)
from repro.core.quadtree import RegionHierarchy
from repro.core.reduction import PiecewiseLinearReduction, ReductionFunction

if TYPE_CHECKING:
    import numpy as np

    from repro.core.statistics_grid import StatisticsGrid
    from repro.geo import Rect


# How many of the heap's best unexpanded entries get their children
# scored alongside a fall-through's own.  A constant, not a parameter:
# unhinted, the call count bottoms out at the chain depth by 4 while the
# speculative rows keep growing (tables in DESIGN.md §11).
_FRONTIER_LOOKAHEAD = 4


@dataclass
class PartitioningResult:
    """Output of GRIDREDUCE: the shedding regions with their statistics.

    ``coords`` names each region's quad-tree node, in region order — a
    cheap stand-in for the rectangles when two partitionings of one
    hierarchy are compared (empty for non-quad-tree partitionings).
    """

    regions: list[RegionStats]
    coords: list[NodeCoord]
    expansions: int

    @property
    def num_regions(self) -> int:
        return len(self.regions)


def effective_region_count(l: int) -> int:
    """Largest ``l' <= l`` with ``l' mod 3 == 1`` (and ``l' >= 1``).

    Each quadrant expansion replaces one region with four, so reachable
    region counts are exactly ``1 + 3k``; requests in between round down.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    return l - ((l - 1) % 3)


def _gather_keys(
    hierarchy: RegionHierarchy, level: int, ii: "np.ndarray", jj: "np.ndarray"
) -> "np.ndarray":
    """``(len, KEY_WIDTH)`` gain-key matrix for non-leaf nodes at one level.

    Row layout: the node's own ``(n, m, s)``, then its children's ``n``,
    ``m`` and ``s`` as three 4-blocks in row-major 2×2 order — the exact
    float inputs CALCERRGAIN reads, so two rounds gathering equal rows
    produce bit-identical gains.
    """
    import numpy as np

    side = 1 << level
    keys = np.empty((len(ii), KEY_WIDTH), dtype=np.float64)
    for col, (own, child) in enumerate(
        zip(hierarchy.level_stats(level), hierarchy.level_stats(level + 1))
    ):
        keys[:, col] = own[ii, jj]
        # One gather per statistic: the (side, 2, side, 2) view puts a
        # node's 2×2 child block at [i, :, j, :].
        keys[:, 3 + 4 * col : 7 + 4 * col] = child.reshape(side, 2, side, 2)[
            ii, :, jj, :
        ].reshape(-1, 4)
    return keys


def _coord_kernel(
    z: float,
    reduction: ReductionFunction,
    pw: PiecewiseLinearReduction,
    use_speed: bool,
    horizon: GreedyHorizon,
):
    """Gain kernel scoring coordinate groups in ONE array-kernel call.

    Rows from *all* levels concatenate into a single
    ``greedy_increment_arrays`` invocation (problems are solved
    independently, so batch composition cannot change any result); the
    child statistics are read straight off the gathered key rows.
    Returns the gains and the number of rows actually solved.
    """
    import numpy as np

    from repro.core.greedy_vector import greedy_increment_arrays

    def kernel(groups) -> "tuple[np.ndarray, int]":
        keys = np.concatenate([group[3] for group in groups])
        gains = np.zeros(len(keys), dtype=np.float64)
        # CALCERRGAIN's eligibility guard: no queries to protect or no
        # updates to shed means splitting cannot help — gain exactly 0.
        eligible = np.flatnonzero((keys[:, 1] > 0.0) & (keys[:, 0] > 0.0))
        if eligible.size:
            rows = keys[eligible]
            solved = greedy_increment_arrays(
                rows[:, 3:7], rows[:, 7:11], rows[:, 11:15], pw, z, use_speed, horizon
            )
            gains[eligible] = np.maximum(
                0.0, rows[:, 1] * reduction.delta_for_fraction(z) - solved.inaccuracy
            )
        return gains, int(eligible.size)

    return kernel


def _group_coords(coords, leaf_level: int):
    """Group ``(level, i, j)`` coordinates into per-level index arrays.

    Coordinates at or below the leaf level are dropped — leaves always
    have gain 0 and bypass scoring entirely (and a stale hint from a
    deeper hierarchy names nodes that do not exist here).
    """
    import numpy as np

    by_level: dict[int, tuple[list[int], list[int]]] = {}
    for level, i, j in coords:
        if level >= leaf_level:
            continue
        ii, jj = by_level.setdefault(level, ([], []))
        ii.append(i)
        jj.append(j)
    return [
        (level, np.array(ii, dtype=np.intp), np.array(jj, dtype=np.intp))
        for level, (ii, jj) in by_level.items()
    ]


def _score(
    hierarchy: RegionHierarchy,
    cache: IncrementalGridReduceCache,
    kernel,
    gains: dict[NodeCoord, float],
    coords,
) -> None:
    """Resolve the gains of ``coords`` into the per-call ``gains`` table.

    Clean nodes (gathered key bit-equal to the one ``cache`` stored)
    read their memoized gain; dirty or never-seen nodes re-solve
    through ``kernel`` in one batched call and refresh their memo rows.
    Stale entries can never survive a statistics change — the key *is*
    the gain's full input — so no invalidation bookkeeping exists.
    """
    misses, stores = [], []
    for level, ii, jj in _group_coords(coords, hierarchy.depth):
        keys = _gather_keys(hierarchy, level, ii, jj)
        # ``None``: level too deep for a memo — everything misses.
        store = cache.level_store(level)
        if store is not None:
            stored_keys, stored_gains, valid = store
            hit = valid[ii, jj] & (keys == stored_keys[ii, jj]).all(axis=1)
            ii_hit, jj_hit = ii[hit], jj[hit]
            cache.counts.memo_hits += len(ii_hit)
            gains.update(
                zip(
                    zip(repeat(level), ii_hit.tolist(), jj_hit.tolist()),
                    stored_gains[ii_hit, jj_hit].tolist(),
                )
            )
            miss = ~hit
            ii, jj, keys = ii[miss], jj[miss], keys[miss]
        if len(ii):
            misses.append((level, ii, jj, keys))
            stores.append(store)
    if not misses:
        return
    solved, rows = kernel(misses)
    cache.counts.memo_misses += len(solved)
    cache.counts.gain_kernel_calls += rows > 0
    cache.counts.gain_rows_solved += rows
    offset = 0
    for (level, ii, jj, keys), store in zip(misses, stores):
        level_gains = solved[offset : offset + len(ii)]
        offset += len(ii)
        if store is not None:
            stored_keys, stored_gains, valid = store
            stored_keys[ii, jj] = keys
            stored_gains[ii, jj] = level_gains
            valid[ii, jj] = True
        gains.update(
            zip(zip(repeat(level), ii.tolist(), jj.tolist()), level_gains.tolist())
        )


def _children(level: int, i: int, j: int) -> list[NodeCoord]:
    """A node's quadrants in row-major order (``RegionHierarchy.children``)."""
    return [(level + 1, 2 * i + di, 2 * j + dj) for di in (0, 1) for dj in (0, 1)]


def _frontier(heap, gains: dict[NodeCoord, float], depth: int) -> list[NodeCoord]:
    """Children of the heap's best unexpanded entries — the next fall-throughs.

    Zero-gain entries pop only once everything else is exhausted, and
    leaf children need no score: neither is worth a speculative row.
    Siblings are scored together, so the first child stands for all four.
    """
    best = heapq.nsmallest(
        _FRONTIER_LOOKAHEAD,
        (
            entry for entry in heap
            if entry[0] < 0.0
            and entry[2] + 1 < depth
            and (entry[2] + 1, 2 * entry[3], 2 * entry[4]) not in gains
        ),
    )
    return [c for _, _, level, i, j in best for c in _children(level, i, j)]


def _cold_hint(hierarchy: RegionHierarchy, target: int) -> list[NodeCoord]:
    """The nodes a from-scratch round will likely push, found with no kernel call.

    The expansion loop over a closed-form stand-in for the gain, a node's
    ``n·m``, run for 1.5× the expansions of a full run (stand-in and budget
    from DESIGN.md §11's table).  ``n·m = 0`` means gain 0 at the node and
    below it, so such a node is never expanded: an ineligible root hints
    itself only.
    """
    depth = hierarchy.depth
    weights = [(n * m).tolist() for n, m, _ in map(hierarchy.level_stats, range(depth))]
    hint: list[NodeCoord] = [(0, 0, 0)]
    heap = [(-weights[0][0][0], 0, 0, 0)] if depth and weights[0][0][0] > 0.0 else []
    for _ in range((target - 1) // 2):
        if not heap:
            break
        _, level, i, j = heapq.heappop(heap)
        children = _children(level, i, j)
        hint += children
        if level + 1 < depth:
            below = weights[level + 1]
            for child in children:
                if below[child[1]][child[2]] > 0.0:
                    heapq.heappush(heap, (-below[child[1]][child[2]], *child))
    return hint


def grid_reduce(
    hierarchy: RegionHierarchy,
    l: int,
    z: float,
    reduction: ReductionFunction,
    increment: float | None = None,
    use_speed: bool = True,
    cache: IncrementalGridReduceCache | None = None,
) -> PartitioningResult:
    """Compute the ``(α, l)``-partitioning of the space.

    Maintains a max-heap of explored nodes keyed by accuracy gain; each
    step pops the best node and replaces it with its four quadrants.
    Nodes that are statistics-grid cells (leaves) can no longer be split
    and are set aside.  Stops at ``effective_region_count(l)`` regions,
    or earlier if every remaining region is a leaf.

    The loop runs on ``(level, i, j)`` coordinates and a per-call gain
    table filled by the batched array kernel; only the final nodes are
    boxed.  A *prefetch hint* (a list of nodes) is scored up front in
    one batch; when an expansion's children are still unscored it
    scores them *together with* the children of the
    ``_FRONTIER_LOOKAHEAD`` best heap entries, the nodes about to be
    popped.  Hinted or speculative rows can only be wasted, never
    change a gain (the kernel is row-local), so the partitioning is
    bit-identical to the per-node reference
    (``tests/oracles/gridreduce.py``).

    ``cache`` memoizes per-node gains across calls, keyed on each
    node's exact aggregate statistics, and hints the previous run's heap
    push sequence: clean nodes hit the memo and dirty ones re-solve
    together, so a round whose drift touched a few hierarchy nodes
    re-solves GREEDYINCREMENT for those alone, and one that dirtied
    everything (or moved ``z``, which voids the gains but not the hint)
    still makes a handful of kernel calls.  A cache with no previous
    run (the default: a fresh one per call) hints ``_cold_hint``'s guess
    from the hierarchy.  A cache passed in must be dedicated to this
    (hierarchy, reduction, increment, use_speed) combination.
    """
    if isinstance(reduction, PiecewiseLinearReduction) and increment is None:
        increment = reduction.segment_size
    cache = IncrementalGridReduceCache() if cache is None else cache
    target = effective_region_count(l)
    depth = hierarchy.depth
    kernel = _coord_kernel(
        z, reduction, _as_piecewise(reduction, increment), use_speed, cache.gain_horizon
    )

    gains: dict[NodeCoord, float] = {}
    cache.begin_round(z)
    hint = cache.trajectory if cache.trajectory is not None else _cold_hint(hierarchy, target)
    _score(hierarchy, cache, kernel, gains, hint)

    # Heap entries are (-gain, push counter, level, i, j).
    heap = [(-gains[0, 0, 0] if depth else 0.0, 0, 0, 0, 0)]
    scored: list[NodeCoord] = [(0, 0, 0)]
    finished: list[NodeCoord] = []
    expansions = 0
    while len(finished) + len(heap) < target and heap:
        _, _, level, i, j = heapq.heappop(heap)
        if level == depth:
            finished.append((level, i, j))
            continue
        children = _children(level, i, j)
        # Leaf children are never scored (a leaf cannot split: gain 0).
        wanted = [c for c in children if c not in gains] if level + 1 < depth else []
        if wanted:
            wanted += _frontier(heap, gains, depth)
            _score(hierarchy, cache, kernel, gains, wanted)
        for child in children:
            gain = gains[child] if level + 1 < depth else 0.0
            heapq.heappush(heap, (-gain, len(scored), *child))
            scored.append(child)
        expansions += 1

    # Canonical region order: the partitioning is a *set* of nodes; the
    # heap's pop order is an implementation detail that permutes with
    # infinitesimal gain changes.  Sorting by quad-tree coordinate makes
    # plan region order a pure function of the partition, so two rounds
    # choosing the same cut produce positionally identical plans — the
    # property `SheddingPlan.same_geometry` (and thus the delta
    # broadcast path) keys on.
    result = sorted(finished + [entry[2:] for entry in heap])
    # Sorted coordinates group by level: one gather per level and
    # statistic, the same floats ``hierarchy.node`` would box one by one.
    regions: list[RegionStats] = []
    for level, group in groupby(result, key=itemgetter(0)):
        _, ii, jj = (list(axis) for axis in zip(*group))
        stats = (stat[ii, jj].tolist() for stat in hierarchy.level_stats(level))
        regions += [
            RegionStats(hierarchy.rect(level, i, j), n, m, s)
            for i, j, n, m, s in zip(ii, jj, *stats)
        ]
    cache.trajectory = scored
    return PartitioningResult(regions=regions, coords=result, expansions=expansions)


def uniform_partitioning(grid, l: int) -> PartitioningResult:
    """The paper's *l-partitioning*: a uniform √l × √l grid of regions.

    Used by the Lira-Grid baseline.  ``k = floor(√l)`` regions per side;
    region boundaries are snapped to statistics-grid cell boundaries
    (cell ``i`` belongs to region ``floor(i·k/α)``), so statistics
    aggregate exactly.  ``grid`` is a
    :class:`~repro.core.statistics_grid.StatisticsGrid`.
    """

    if l < 1:
        raise ValueError("l must be >= 1")
    alpha = grid.alpha
    k = min(max(int(l**0.5), 1), alpha)
    # Cell index boundaries of the k blocks along one axis.
    edges = [int(round(b * alpha / k)) for b in range(k + 1)]
    regions: list[RegionStats] = []
    for bi in range(k):
        i_lo, i_hi = edges[bi], edges[bi + 1]
        for bj in range(k):
            j_lo, j_hi = edges[bj], edges[bj + 1]
            n_block = grid.n[i_lo:i_hi, j_lo:j_hi]
            m_block = grid.m[i_lo:i_hi, j_lo:j_hi]
            s_block = grid.s[i_lo:i_hi, j_lo:j_hi]
            n_total = float(n_block.sum())
            momentum = float((n_block * s_block).sum())
            s_mean = momentum / n_total if n_total > 0 else 0.0
            rect = _block_rect(grid, i_lo, i_hi, j_lo, j_hi)
            regions.append(
                RegionStats(rect=rect, n=n_total, m=float(m_block.sum()), s=s_mean)
            )
    return PartitioningResult(regions=regions, coords=[], expansions=0)


def _block_rect(
    grid: StatisticsGrid, i_lo: int, i_hi: int, j_lo: int, j_hi: int
) -> Rect:
    """Geographic rectangle of a block of statistics-grid cells."""
    from repro.geo import Rect

    cell_w = grid.bounds.width / grid.alpha
    cell_h = grid.bounds.height / grid.alpha
    return Rect(
        grid.bounds.x1 + i_lo * cell_w,
        grid.bounds.y1 + j_lo * cell_h,
        grid.bounds.x1 + i_hi * cell_w,
        grid.bounds.y1 + j_hi * cell_h,
    )
