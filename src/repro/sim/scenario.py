"""Experiment scenarios: reusable (trace, workload, reduction) bundles.

Building a trace and measuring the empirical reduction function are the
expensive parts of an experiment; a :class:`Scenario` does both once and
is shared across a parameter sweep.  Scenarios are built, not stored:
a scenario is a pure function of its parameters, so :func:`build_scenario`
memoizes in-process only.  The trace is memoized on its own arguments and
the empirical reduction on those plus (Δ⊢, Δ⊣, sample count), so every
workload variant over one trace (another distribution, m/n or query
side) reuses both and only generates its queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.core import AnalyticReduction, measure_reduction_from_trace
from repro.core.reduction import PiecewiseLinearReduction, ReductionFunction
from repro.queries import QueryDistribution, RangeQuery, generate_workload
from repro.roadnet import make_default_scene
from repro.trace import Trace, TraceGenerator


@dataclass
class Scenario:
    """One fully built experimental setting."""

    trace: Trace
    queries: list[RangeQuery]
    reduction: ReductionFunction
    delta_min: float
    delta_max: float
    seed: int

    @property
    def n_nodes(self) -> int:
        return self.trace.num_nodes

    def workload(
        self,
        mn_ratio: float | None = None,
        n_queries: int | None = None,
        side_length: float = 1000.0,
        distribution: QueryDistribution = QueryDistribution.PROPORTIONAL,
        seed: int | None = None,
    ) -> list[RangeQuery]:
        """Generate an alternative query workload over this trace.

        Specify either ``mn_ratio`` (queries per node, paper's m/n) or
        an absolute ``n_queries``.
        """
        if (mn_ratio is None) == (n_queries is None):
            raise ValueError("specify exactly one of mn_ratio / n_queries")
        if n_queries is None:
            n_queries = max(1, int(round(mn_ratio * self.n_nodes)))
        return generate_workload(
            self.trace.bounds,
            n_queries,
            side_length,
            distribution,
            self.trace.snapshot(0),
            seed=self.seed if seed is None else seed,
        )


@lru_cache(maxsize=8)
def _cached_trace(
    n_nodes: int,
    duration: float,
    dt: float,
    seed: int,
    side_meters: float,
    collector_spacing: float,
) -> Trace:
    network, traffic = make_default_scene(
        side_meters=side_meters, seed=seed, collector_spacing=collector_spacing
    )
    generator = TraceGenerator(network, traffic, n_vehicles=n_nodes, seed=seed)
    return generator.generate(duration=duration, dt=dt, warmup=10 * dt)


@lru_cache(maxsize=8)
def _cached_reduction(
    n_nodes: int,
    duration: float,
    dt: float,
    seed: int,
    side_meters: float,
    collector_spacing: float,
    delta_min: float,
    delta_max: float,
    n_samples: int,
) -> PiecewiseLinearReduction:
    trace = _cached_trace(n_nodes, duration, dt, seed, side_meters, collector_spacing)
    return measure_reduction_from_trace(
        trace, delta_min, delta_max, n_samples=n_samples
    )


@lru_cache(maxsize=8)
def _cached_scenario(
    n_nodes: int,
    mn_ratio: float,
    side_length: float,
    distribution_value: str,
    duration: float,
    dt: float,
    seed: int,
    side_meters: float,
    collector_spacing: float,
    delta_min: float,
    delta_max: float,
    reduction_kind: str,
    reduction_samples: int,
) -> Scenario:
    trace = _cached_trace(n_nodes, duration, dt, seed, side_meters, collector_spacing)
    queries = generate_workload(
        trace.bounds,
        max(1, int(round(mn_ratio * n_nodes))),
        side_length,
        QueryDistribution(distribution_value),
        trace.snapshot(0),
        seed=seed,
    )
    if reduction_kind == "empirical":
        reduction = _cached_reduction(
            n_nodes,
            duration,
            dt,
            seed,
            side_meters,
            collector_spacing,
            delta_min,
            delta_max,
            reduction_samples,
        )
    elif reduction_kind == "analytic":
        reduction = AnalyticReduction(delta_min, delta_max)
    else:
        raise ValueError(f"unknown reduction kind: {reduction_kind}")
    return Scenario(
        trace=trace,
        queries=queries,
        reduction=reduction,
        delta_min=delta_min,
        delta_max=delta_max,
        seed=seed,
    )


def build_scenario(
    n_nodes: int = 2000,
    mn_ratio: float = 0.01,
    side_length: float = 1000.0,
    distribution: QueryDistribution = QueryDistribution.PROPORTIONAL,
    duration: float = 1200.0,
    dt: float = 10.0,
    seed: int = 7,
    side_meters: float = 14_000.0,
    collector_spacing: float = 700.0,
    delta_min: float = 5.0,
    delta_max: float = 100.0,
    reduction: str = "empirical",
    reduction_samples: int = 12,
) -> Scenario:
    """Build (or fetch from the in-process memo) a complete experiment scenario.

    Defaults mirror the paper: ~200 km^2 region, m/n = 0.01, w = 1000 m,
    proportional query distribution, Δ ∈ [5, 100] m, and an empirically
    measured reduction function.  Equal arguments return the same object.
    """
    return _cached_scenario(
        n_nodes,
        mn_ratio,
        side_length,
        distribution.value,
        duration,
        dt,
        seed,
        side_meters,
        collector_spacing,
        delta_min,
        delta_max,
        reduction,
        reduction_samples,
    )

