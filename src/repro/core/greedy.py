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


def greedy_increment(
    regions: list[RegionStats],
    reduction: ReductionFunction,
    z: float,
    increment: float | None = None,
    fairness: float | None = None,
    use_speed: bool = True,
    horizon: GreedyHorizon | None = None,
) -> GreedyResult:
    """Run GREEDYINCREMENT over ``regions``.

    ``increment`` (c_Δ) defaults to the reduction function's segment size
    when it is already piecewise linear; otherwise the function is
    discretized into segments of size ``increment`` first.  ``fairness``
    is Δ⇔ (``None`` disables the constraint; ``0`` forces the uniform-Δ
    solution, the paper's degenerate case).  The solve runs on the array
    kernel in :mod:`repro.core.greedy_vector`, which reproduces the
    heap loop described above pop for pop (the scalar loop itself is
    the test oracle, ``tests/oracles/greedy.py``); ``horizon`` is that
    kernel's cross-call hint (how many knot-path columns to try first)
    and cannot change a result.
    """
    if not regions:
        raise ValueError("at least one region is required")
    if not (0.0 <= z <= 1.0):
        raise ValueError("throttle fraction z must be in [0, 1]")
    from repro.core.greedy_vector import greedy_increment_vector

    pw = _as_piecewise(reduction, increment)
    return greedy_increment_vector(regions, pw, z, fairness, use_speed, horizon)


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
