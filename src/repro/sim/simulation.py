"""Closed-loop simulation: the paper figures' measurement of the systems loop.

A :class:`Simulation` runs one (trace, workload, policy) combination on
one K=1 :class:`~repro.server.LiraSystem` with the queue model lifted
and z pinned: each tick every node reads its threshold from the plan
subset its station broadcast, reports via dead reckoning, and the server
ingests what the policy admits.  Periodically the policy serves a new
plan from fresh statistics of the queries installed at that tick (a
static list, or a churning :class:`~repro.sim.dynamics.QueryTimeline`,
Section 4.3.2).  The simulation itself only measures: query results
against the server's believed positions, compared with ground truth.

This is the measurement behind every accuracy figure in the paper
(Figures 4-13).  The per-tick plan lookup it replaced is the parity
oracle ``tests/oracles/simulation.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.core import AnalyticReduction, LiraConfig
from repro.metrics.accuracy import FairnessStats, fairness_stats
from repro.motion import DeadReckoningFleet
from repro.queries import QueryEvalKernel, RangeQuery
from repro.server import LiraSystem
from repro.shedding import SheddingPolicy
from repro.sim.dynamics import QueryTimeline, TimedQuery
from repro.trace import Trace

#: The shard's z controller is pinned at :attr:`SimulationConfig.z`, so
#: of its configuration only Δ⊢ is read: the threshold of a node that
#: no stored region covers.
_Z_CONTROLLER = LiraConfig()
_Z_REDUCTION = AnalyticReduction(_Z_CONTROLLER.delta_min, _Z_CONTROLLER.delta_max)


@dataclass
class SimulationConfig:
    """Knobs of one simulation run."""

    z: float = 0.5
    adapt_every: int = 30
    warmup_ticks: int = 3
    seed: int = 7

    def __post_init__(self) -> None:
        if not (0.0 <= self.z <= 1.0):
            raise ValueError("z must be in [0, 1]")
        if self.adapt_every < 1:
            raise ValueError("adapt_every must be >= 1")
        if self.warmup_ticks < 0:
            raise ValueError("warmup_ticks must be >= 0")


@dataclass
class SimulationResult:
    """Aggregated accuracy and cost measurements of one run.

    Per-query arrays follow the timeline's entries.  ``containment_per_tick``
    is NaN on warmup ticks and on ticks where no query has a true result.
    """

    policy_name: str
    z: float
    mean_containment_error: float
    mean_position_error: float
    containment_fairness: FairnessStats
    position_fairness: FairnessStats
    per_query_containment: np.ndarray
    per_query_position: np.ndarray
    updates_sent: int
    updates_admitted: int
    ticks_measured: int
    adaptations: int = 0
    updates_per_tick: np.ndarray = field(default_factory=lambda: np.empty(0))
    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    containment_per_tick: np.ndarray = field(default_factory=lambda: np.empty(0))

    def window_error(self, t_from: float = 0.0, t_to: float = float("inf")) -> float:
        """Mean per-tick containment error over ``[t_from, t_to)`` (NaN ticks skipped)."""
        mask = (self.times >= t_from) & (self.times < t_to)
        window = self.containment_per_tick[mask]
        window = window[~np.isnan(window)]
        return float(window.mean()) if window.size else float("nan")


class _LastBatch:
    """A :attr:`LiraSystem.history` that keeps only the latest senders."""

    senders = np.empty(0, dtype=np.int64)

    def record(self, t, node_ids, positions, velocities) -> None:
        self.senders = node_ids


class Simulation:
    """Runs one (trace, workload, policy) combination to completion.

    ``queries`` is a static list or a :class:`QueryTimeline`; a list is
    a one-phase timeline.  Per-tick accuracy comes from
    :meth:`~repro.queries.QueryEvalKernel.measure`, rebuilt only when the
    active query set changes; the brute-force per-query loop it is
    proved bit-identical to lives in ``tests/oracles/measurement.py``.
    """

    def __init__(
        self,
        trace: Trace,
        queries: list[RangeQuery] | QueryTimeline,
        policy: SheddingPolicy,
        config: SimulationConfig | None = None,
    ) -> None:
        if not isinstance(queries, QueryTimeline):
            queries = QueryTimeline([TimedQuery(q, 0.0) for q in queries])
        if not queries.entries:
            raise ValueError("at least one query is required")
        self.trace = trace
        self.timeline = queries
        self.policy = policy
        self.config = config or SimulationConfig()

    def ticks(self) -> Iterator[tuple[int, float, np.ndarray, int]]:
        """Run the closed loop, yielding ``(tick, t, senders, admitted)``:
        the ids of the nodes that reported and how many the server kept.

        Each tick first points the server's query set (what the grid of
        its next adapt reads; the simulation measures with its own
        kernel) at the queries active at ``t`` and re-adapts on
        schedule, then ticks
        :attr:`system` on the trace's true positions.  While a step is
        out, ``self.system.server.table`` is the server view after that
        tick's ingest and ``self.active`` the indices of the timeline
        entries active at ``t`` (a new list only when the set changes).
        """
        trace, policy, cfg = self.trace, self.policy, self.config
        entries = self.timeline.entries
        change_times = self.timeline.change_times()
        # The queue model lifted: every report of a tick is applied within it.
        self.system = system = LiraSystem(
            trace.bounds, trace.num_nodes, [], _Z_REDUCTION, _Z_CONTROLLER,
            service_rate=1e12, queue_capacity=trace.num_nodes, adaptive_throttle=False,
            policy=lambda shedder, reduction: policy, policy_seed=cfg.seed,
        )
        system.set_throttle_fraction(cfg.z)
        system.history = batch = _LastBatch()
        server = system.server
        self.active: list[int] = []
        self.adaptations = 0
        phase = -1

        for tick in range(trace.num_ticks):
            t = tick * trace.dt
            positions = trace.positions[tick]
            if (crossed := bisect_right(change_times, t)) != phase:
                phase = crossed
                active = [i for i, e in enumerate(entries) if e.active_at(t)]
                if active != self.active:
                    self.active = active
                    server.queries = [entries[i].query for i in active]

            if tick % cfg.adapt_every == 0:
                system.adapt(positions, trace.speeds(tick))
                self.adaptations += 1

            shed = server.counts.shed
            sent = system.tick(t, positions, trace.velocities[tick], trace.dt)
            yield tick, t, batch.senders, sent - (server.counts.shed - shed)

    def run(self) -> SimulationResult:
        """Execute the closed loop over the whole trace and measure it."""
        trace, policy, cfg = self.trace, self.policy, self.config
        entries = self.timeline.entries
        n_q, t_total = len(entries), trace.num_ticks
        cont_sum = np.zeros(n_q)
        cont_cnt = np.zeros(n_q)
        pos_sum = np.zeros(n_q)
        pos_cnt = np.zeros(n_q)
        times = np.empty(t_total)
        per_tick = np.full(t_total, np.nan)
        updates_per_tick = np.zeros(t_total, dtype=np.int64)
        admitted_total = 0
        ticks_measured = 0
        kernel_for: list[int] | None = None

        for tick, t, senders, admitted in self.ticks():
            times[tick] = t
            updates_per_tick[tick] = senders.size
            admitted_total += admitted
            if tick < cfg.warmup_ticks or not self.active:
                continue
            if kernel_for is not self.active:
                kernel_for, rows = self.active, np.asarray(self.active)
                kernel = QueryEvalKernel(
                    [entries[i].query for i in kernel_for],
                    bounds=trace.bounds,
                    cells_per_side=max(policy.alpha, 16),
                )
            ticks_measured += 1
            m = kernel.measure(trace.positions[tick], self.system.server.table.predict(t))
            cont_sum[rows] += np.where(m.has_true, m.containment_error, 0.0)
            cont_cnt[rows] += m.has_true
            pos_sum[rows] += np.where(m.has_believed, m.position_error, 0.0)
            pos_cnt[rows] += m.has_believed
            if m.has_true.any():
                per_tick[tick] = float(m.containment_error[m.has_true].mean())

        with np.errstate(invalid="ignore", divide="ignore"):
            per_query_cont = np.where(cont_cnt > 0, cont_sum / np.maximum(cont_cnt, 1), np.nan)
            per_query_pos = np.where(pos_cnt > 0, pos_sum / np.maximum(pos_cnt, 1), np.nan)

        cont_fair = fairness_stats(per_query_cont)
        pos_fair = fairness_stats(per_query_pos)
        return SimulationResult(
            policy_name=policy.name,
            z=cfg.z,
            mean_containment_error=cont_fair.mean,
            mean_position_error=pos_fair.mean,
            containment_fairness=cont_fair,
            position_fairness=pos_fair,
            per_query_containment=per_query_cont,
            per_query_position=per_query_pos,
            updates_sent=int(self.system.fleet.total_reports),
            updates_admitted=admitted_total,
            ticks_measured=ticks_measured,
            adaptations=self.adaptations,
            updates_per_tick=updates_per_tick,
            times=times,
            containment_per_tick=per_tick,
        )


def reference_update_count(trace: Trace, delta_min: float) -> int:
    """Updates a full-accuracy run (all Δ = Δ⊢) sends over the trace.

    The denominator of budget-adherence checks: a policy with throttle
    fraction z should admit at most ~z times this count.

    Computing it re-simulates the whole fleet, so results are memoized on
    the trace object keyed by ``delta_min`` — callers that normalize many
    experiment runs against the same trace (every budget figure) pay the
    fleet sweep once.  The cache lives and dies with the trace instance,
    so a trace mutated in place should not be reused with this helper.
    """
    cache: dict[float, int] | None = getattr(trace, "_reference_update_cache", None)
    if cache is None:
        cache = {}
        trace._reference_update_cache = cache
    key = float(delta_min)
    if key not in cache:
        fleet = DeadReckoningFleet(trace.num_nodes)
        fleet.set_thresholds(key)
        for tick in range(trace.num_ticks):
            fleet.observe(
                tick * trace.dt, trace.positions[tick], trace.velocities[tick]
            )
        cache[key] = int(fleet.total_reports)
    return cache[key]
