"""Scalar GREEDYINCREMENT: the heap loop the array kernel reproduces.

Start all throttlers at Δ⊢ and repeatedly pop the region with the
highest update gain, advancing it one segment (or less, to land on the
budget or a fairness limit).  :func:`repro.core.greedy_increment` must
return bit-identical results — thresholds, expenditure, step count.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.core.greedy import (
    _EPS,
    GreedyResult,
    RegionStats,
    _as_piecewise,
    _region_weights,
    _uniform_solution,
)
from repro.core.reduction import ReductionFunction


class _MinMultiset:
    """Multiset over floats with O(log n) update and O(1) amortized min.

    Backed by a heap with lazy deletion; stands in for the paper's
    "sorted tree of update throttlers" used to track Δ⊳ = min Δⱼ.
    """

    def __init__(self, values) -> None:
        self._heap = list(map(float, values))
        heapq.heapify(self._heap)
        live: dict[float, int] = {}
        for v in self._heap:
            live[v] = live.get(v, 0) + 1
        self._live = live

    def update(self, old: float, new: float) -> None:
        old, new = float(old), float(new)
        live = self._live
        count = live.get(old, 0)
        if count <= 0:
            raise KeyError(f"value {old} not present")
        live[old] = count - 1
        live[new] = live.get(new, 0) + 1
        heapq.heappush(self._heap, new)

    def min(self) -> float:
        heap = self._heap
        live = self._live
        while heap and live.get(heap[0], 0) <= 0:
            heapq.heappop(heap)
        if not heap:
            raise ValueError("multiset is empty")
        return heap[0]


def greedy_increment_reference(
    regions: list[RegionStats],
    reduction: ReductionFunction,
    z: float,
    increment: float | None = None,
    fairness: float | None = None,
    use_speed: bool = True,
) -> GreedyResult:
    """The heap loop of Algorithm 2, one pop at a time."""
    if not regions:
        raise ValueError("at least one region is required")
    if not (0.0 <= z <= 1.0):
        raise ValueError("throttle fraction z must be in [0, 1]")
    pw = _as_piecewise(reduction, increment)
    d_min, d_max = pw.delta_min, pw.delta_max
    seg = pw.segment_size
    l = len(regions)

    weights = _region_weights(regions, use_speed)
    m = np.array([reg.m for reg in regions], dtype=np.float64)

    # Expenditure and budget (f(Δ⊢) = 1 by normalization).
    total_weight = float(weights.sum())
    budget = z * total_weight

    if fairness is not None and fairness <= 0.0:
        return _uniform_solution(pw, z, weights, m)
    # Resolution floor: a positive Δ⇔ far below the Δ domain forces the
    # march into lockstep — every round advances all l regions by Δ⇔, so
    # reaching the optimum takes O((Δ⊣ - Δ⊢) / Δ⇔ · l) heap operations
    # (unbounded as Δ⇔ → 0) to refine the uniform solution by less than
    # the floor itself.  Treat such spacings as the Δ⇔ = 0 limit.
    if fairness is not None and fairness < (d_max - d_min) * 1e-4:
        return _uniform_solution(pw, z, weights, m)

    deltas = np.full(l, d_min, dtype=np.float64)
    expenditure = total_weight
    if expenditure <= budget + _EPS:
        return GreedyResult(
            thresholds=deltas,
            expenditure=expenditure,
            budget=budget,
            inaccuracy=float((m * deltas).sum()),
            steps=0,
            budget_met=True,
        )

    # The increment loop runs thousands of scalar reads per adapt step;
    # plain-float lists sidestep numpy scalar-indexing overhead.  The
    # arithmetic (and hence every threshold) is bit-identical.
    w_l = weights.tolist()
    m_l = m.tolist()
    deltas_l = deltas.tolist()

    minima = _MinMultiset(deltas_l)
    heap: list[tuple[float, int, int]] = []
    counter = 0
    blocked: dict[int, bool] = {}

    r = pw.r

    def gain(i: int, delta: float, w_l=w_l, m_l=m_l, r=r, min=min) -> float:
        rate = w_l[i] * r(delta)
        # Subnormal query counts behave as zero: the gain is unbounded.
        if m_l[i] > 1e-300:
            return min(rate / m_l[i], 1e300)
        return math.inf if rate > 0 else 0.0

    for i in range(l):
        if w_l[i] <= 0:
            continue  # incrementing cannot reduce expenditure; keep Δ⊢
        heapq.heappush(heap, (-gain(i, d_min), counter, i))
        counter += 1

    steps = 0
    while expenditure > budget + _EPS and heap:
        _, _, i = heapq.heappop(heap)
        old = deltas_l[i]
        current_min = minima.min()
        next_knot = d_min + seg * (math.floor((old - d_min) / seg + 1e-7) + 1)
        target = min(next_knot, d_max)
        if fairness is not None:
            target = min(target, current_min + fairness)
        step = target - old
        if step <= _EPS:
            # Already at the fairness limit: park in the blocked list.
            blocked[i] = True
            continue
        rate = w_l[i] * r(old)
        if rate > 1e-300:
            step = min(step, (expenditure - budget) / rate)
        new = old + step
        expenditure -= rate * step
        deltas_l[i] = new
        minima.update(old, new)
        steps += 1

        at_limit = fairness is not None and new >= minima.min() + fairness - _EPS
        if new >= d_max - _EPS:
            pass  # throttler maxed out; retired
        elif at_limit:
            blocked[i] = True
        else:
            heapq.heappush(heap, (-gain(i, new), counter, i))
            counter += 1

        new_min = minima.min()
        if fairness is not None and new_min > current_min + _EPS and blocked:
            for j in list(blocked):
                if deltas_l[j] < new_min + fairness - _EPS:
                    del blocked[j]
                    heapq.heappush(heap, (-gain(j, deltas_l[j]), counter, j))
                    counter += 1

    deltas = np.array(deltas_l, dtype=np.float64)
    return GreedyResult(
        thresholds=deltas,
        expenditure=expenditure,
        budget=budget,
        inaccuracy=float((m * deltas).sum()),
        steps=steps,
        budget_met=expenditure <= budget + max(_EPS, 1e-9 * max(total_weight, 1.0)),
    )
