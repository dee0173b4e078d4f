"""Time-varying query workloads.

The paper's adaptation story (Section 4.3.2) assumes the workload
changes on the order of tens of minutes and LIRA re-adapts periodically.
This module makes that testable: a :class:`QueryTimeline` holds queries
with install/remove times (query churn), and
:class:`~repro.sim.Simulation` drives a policy against the *active*
query set at each tick, re-adapting on its schedule — or only at tick 0
(``adapt_every`` = the trace's tick count), for the stale-plan comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.queries import RangeQuery


@dataclass(frozen=True, slots=True)
class TimedQuery:
    """A query with a lifetime ``[t_install, t_remove)``."""

    query: RangeQuery
    t_install: float
    t_remove: float = float("inf")

    def __post_init__(self) -> None:
        if not math.isfinite(self.t_install):
            raise ValueError("t_install must be finite")
        # Negated so that a NaN t_remove fails too.
        if not self.t_remove > self.t_install:
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
            if math.isfinite(e.t_remove):
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
