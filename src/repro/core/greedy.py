"""GREEDYINCREMENT: optimal update-throttler setting (Algorithm 2).

Given ``l`` shedding regions with statistics ``(nᵢ, mᵢ, sᵢ)``, a
piecewise-linear update-reduction function ``f`` with segment size c_Δ,
and a throttle fraction ``z``, find throttlers Δᵢ minimizing the query
inaccuracy ``Σ mᵢ·Δᵢ`` subject to the update-budget constraint
``Σ nᵢ·sᵢ·f(Δᵢ) ≤ z·Σ nᵢ·sᵢ·f(Δ⊢)`` and the fairness constraint
``|Δᵢ − Δⱼ| ≤ Δ⇔``.

The algorithm starts all throttlers at Δ⊢ and repeatedly increments the
throttler with the highest *update gain* ``Sᵢ = (nᵢ/mᵢ)·sᵢ·r(Δᵢ)`` by one
segment (or less, to land exactly on the budget or on a fairness limit).
Theorem 3.1: for c_Δ equal to the segment size this is optimal for the
piecewise-linear ``f`` — property-tested against brute force in the test
suite.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.geo import Rect
from repro.core.incremental import GreedyHorizon
from repro.core.reduction import PiecewiseLinearReduction, ReductionFunction

_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class RegionStats:
    """Statistics of one shedding region, as produced by partitioning."""

    rect: Rect
    n: float
    m: float
    s: float


@dataclass
class GreedyResult:
    """Outcome of a GREEDYINCREMENT run.

    ``thresholds[i]`` is Δᵢ for region ``i`` (input order).
    ``budget_met`` is False only when even ``∀i Δᵢ = Δ⊣`` cannot reach
    the budget, in which case thresholds are all Δ⊣ for sheddable
    regions (the paper's fallback solution).
    """

    thresholds: np.ndarray
    expenditure: float
    budget: float
    inaccuracy: float
    steps: int
    budget_met: bool


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


def greedy_increment(
    regions: list[RegionStats],
    reduction: ReductionFunction,
    z: float,
    increment: float | None = None,
    fairness: float | None = None,
    use_speed: bool = True,
    engine: str = "object",
    horizon: GreedyHorizon | None = None,
) -> GreedyResult:
    """Run GREEDYINCREMENT over ``regions``.

    ``increment`` (c_Δ) defaults to the reduction function's segment size
    when it is already piecewise linear; otherwise the function is
    discretized into segments of size ``increment`` first.  ``fairness``
    is Δ⇔ (``None`` disables the constraint; ``0`` forces the uniform-Δ
    solution, the paper's degenerate case).  ``engine="vector"`` runs
    the array kernel in :mod:`repro.core.greedy_vector`, bit-identical
    to this reference loop; ``horizon`` is that kernel's cross-call
    hint (how many knot-path columns to try first) and cannot change a
    result.
    """
    if not regions:
        raise ValueError("at least one region is required")
    if not (0.0 <= z <= 1.0):
        raise ValueError("throttle fraction z must be in [0, 1]")
    if engine not in ("object", "vector"):
        raise ValueError(f"unknown greedy engine {engine!r}")
    pw = _as_piecewise(reduction, increment)
    if engine == "vector":
        from repro.core.greedy_vector import greedy_increment_vector

        return greedy_increment_vector(regions, pw, z, fairness, use_speed, horizon)
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


def _region_weights(regions: list[RegionStats], use_speed: bool) -> np.ndarray:
    """Per-region expenditure weights nᵢ·sᵢ (speed factor) or nᵢ.

    If speeds are requested but uniformly zero (e.g. a static snapshot),
    fall back to plain node counts so the budget stays meaningful.
    """
    n = np.array([reg.n for reg in regions], dtype=np.float64)
    if not use_speed:
        return n
    s = np.array([reg.s for reg in regions], dtype=np.float64)
    weights = n * s
    if weights.sum() <= 0 < n.sum():
        return n
    return weights


def _uniform_solution(
    pw: PiecewiseLinearReduction, z: float, weights: np.ndarray, m: np.ndarray
) -> GreedyResult:
    """Δ⇔ = 0 degenerate case: all throttlers equal (uniform Δ)."""
    delta = pw.delta_for_fraction(z)
    total_weight = float(weights.sum())
    thresholds = np.full(len(weights), delta, dtype=np.float64)
    expenditure = total_weight * pw.f(delta)
    return GreedyResult(
        thresholds=thresholds,
        expenditure=expenditure,
        budget=z * total_weight,
        inaccuracy=float((m * thresholds).sum()),
        steps=0,
        budget_met=expenditure <= z * total_weight + _EPS,
    )


def _as_piecewise(
    reduction: ReductionFunction, increment: float | None
) -> PiecewiseLinearReduction:
    """Coerce the reduction function to the piecewise-linear form greedy needs."""
    span = reduction.delta_max - reduction.delta_min
    if isinstance(reduction, PiecewiseLinearReduction):
        if increment is None or math.isclose(increment, reduction.segment_size):
            return reduction
    if increment is None:
        raise ValueError(
            "increment (c_delta) is required when the reduction function is "
            "not already piecewise linear with the desired segment size"
        )
    n_segments = max(1, int(round(span / increment)))
    return reduction.piecewise(n_segments)
