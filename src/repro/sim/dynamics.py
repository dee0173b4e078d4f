"""Time-varying workloads and the dynamic simulation loop.

The paper's adaptation story (Section 4.3.2) assumes the workload
changes on the order of tens of minutes and LIRA re-adapts periodically.
This module makes that testable: a :class:`QueryTimeline` holds queries
with install/remove times (query churn), and
:func:`run_dynamic_simulation` drives a policy against the *active*
query set at each tick, re-adapting on its schedule — or not, for the
stale-plan comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.statistics_grid import StatisticsGrid
from repro.index import NodeTable
from repro.motion import DeadReckoningFleet
from repro.queries import QueryEvalKernel, RangeQuery
from repro.shedding import SheddingPolicy
from repro.trace import Trace


@dataclass(frozen=True, slots=True)
class TimedQuery:
    """A query with a lifetime ``[t_install, t_remove)``."""

    query: RangeQuery
    t_install: float
    t_remove: float = float("inf")

    def __post_init__(self) -> None:
        if self.t_remove <= self.t_install:
            raise ValueError("t_remove must be after t_install")

    def active_at(self, t: float) -> bool:
        return self.t_install <= t < self.t_remove


@dataclass
class QueryTimeline:
    """A set of queries with lifetimes; answers "what is installed at t?"."""

    entries: list[TimedQuery] = field(default_factory=list)

    def add(self, query: RangeQuery, t_install: float = 0.0,
            t_remove: float = float("inf")) -> None:
        self.entries.append(TimedQuery(query, t_install, t_remove))

    def active_at(self, t: float) -> list[RangeQuery]:
        """Queries installed at time ``t`` (stable order)."""
        return [e.query for e in self.entries if e.active_at(t)]

    def change_times(self) -> list[float]:
        """Sorted distinct times at which the active set changes."""
        times = set()
        for e in self.entries:
            times.add(e.t_install)
            if np.isfinite(e.t_remove):
                times.add(e.t_remove)
        return sorted(times)

    @classmethod
    def phased(
        cls, phases: list[tuple[float, list[RangeQuery]]], end_time: float
    ) -> "QueryTimeline":
        """Build a timeline from consecutive workload phases.

        ``phases`` is ``[(start_time, queries), ...]`` in ascending start
        order; each phase's queries live until the next phase begins
        (the last until ``end_time``).
        """
        if not phases:
            raise ValueError("at least one phase is required")
        starts = [p[0] for p in phases]
        if starts != sorted(starts):
            raise ValueError("phases must be in ascending start order")
        timeline = cls()
        for idx, (start, queries) in enumerate(phases):
            stop = phases[idx + 1][0] if idx + 1 < len(phases) else end_time
            for q in queries:
                timeline.add(q, start, stop)
        return timeline


@dataclass
class DynamicResult:
    """Per-tick error trajectory of a dynamic run."""

    times: np.ndarray
    containment_errors: np.ndarray
    updates_per_tick: np.ndarray
    adaptations: int

    def mean_error(self, t_from: float = 0.0, t_to: float = float("inf")) -> float:
        """Mean containment error over a time window (NaN ticks skipped)."""
        mask = (self.times >= t_from) & (self.times < t_to)
        window = self.containment_errors[mask]
        window = window[~np.isnan(window)]
        return float(window.mean()) if window.size else float("nan")


def run_dynamic_simulation(
    trace: Trace,
    timeline: QueryTimeline,
    policy: SheddingPolicy,
    z: float,
    adapt_every: int | None = 30,
    warmup_ticks: int = 3,
    seed: int = 7,
) -> DynamicResult:
    """Drive a policy against a churning query workload.

    ``adapt_every = None`` adapts exactly once (tick 0) and then leaves
    the plan stale — the comparison baseline for the adaptivity
    experiment.  Statistics grids are built from the current snapshot
    and the *currently active* queries, as a live server would.
    """
    rng = np.random.default_rng(seed)
    n = trace.num_nodes
    fleet = DeadReckoningFleet(n)
    table = NodeTable(n)
    times = np.empty(trace.num_ticks)
    errors = np.full(trace.num_ticks, np.nan)
    updates = np.zeros(trace.num_ticks, dtype=np.int64)
    adaptations = 0

    for tick in range(trace.num_ticks):
        t = tick * trace.dt
        times[tick] = t
        positions = trace.positions[tick]
        velocities = trace.velocities[tick]
        active = timeline.active_at(t)

        must_adapt = tick == 0 or (
            adapt_every is not None and tick % adapt_every == 0
        )
        if must_adapt:
            grid = StatisticsGrid.from_snapshot(
                trace.bounds, policy.alpha, positions, trace.speeds(tick), active
            )
            policy.adapt(grid, z)
            adaptations += 1

        fleet.set_thresholds(policy.thresholds_for(positions))
        senders = fleet.observe(t, positions, velocities)
        updates[tick] = senders.size
        fraction = policy.admission_fraction()
        if fraction < 1.0 and senders.size:
            senders = senders[rng.random(senders.size) < fraction]
        table.ingest(t, senders, positions[senders], velocities[senders])

        if tick < warmup_ticks or not active:
            continue
        m = QueryEvalKernel(active).measure(positions, table.predict(t))
        if m.has_true.any():
            errors[tick] = float(m.containment_error[m.has_true].mean())

    return DynamicResult(
        times=times,
        containment_errors=errors,
        updates_per_tick=updates,
        adaptations=adaptations,
    )
