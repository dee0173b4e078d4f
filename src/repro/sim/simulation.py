"""Closed-loop simulation: trace → policy → dead reckoning → query results.

Each tick, the policy's current shedding plan determines every node's
inaccuracy threshold (by the region it is in), nodes report via dead
reckoning, the server ingests what the policy admits, and query results
are evaluated against the server's believed positions and compared with
ground truth.  Periodically the policy re-adapts from fresh statistics.

This is the measurement loop behind every accuracy figure in the paper
(Figures 4-13).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.statistics_grid import StatisticsGrid
from repro.index import NodeTable
from repro.metrics.accuracy import FairnessStats, fairness_stats
from repro.motion import DeadReckoningFleet
from repro.queries import QueryEvalKernel, RangeQuery
from repro.shedding import SheddingPolicy
from repro.trace import Trace


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
    """Aggregated accuracy and cost measurements of one run."""

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


class Simulation:
    """Runs one (trace, workload, policy) combination to completion.

    Per-tick accuracy comes from
    :meth:`~repro.queries.QueryEvalKernel.measure`; the brute-force
    per-query loop it is proved bit-identical to lives in
    ``tests/oracles/measurement.py``.
    """

    def __init__(
        self,
        trace: Trace,
        queries: list[RangeQuery],
        policy: SheddingPolicy,
        config: SimulationConfig | None = None,
    ) -> None:
        if not queries:
            raise ValueError("at least one query is required")
        self.trace = trace
        self.queries = queries
        self.policy = policy
        self.config = config or SimulationConfig()

    def run(self) -> SimulationResult:
        """Execute the closed loop over the whole trace."""
        trace, queries, policy, cfg = self.trace, self.queries, self.policy, self.config
        n, t_total = trace.num_nodes, trace.num_ticks
        rng = np.random.default_rng(cfg.seed)
        fleet = DeadReckoningFleet(n)
        table = NodeTable(n)

        n_q = len(queries)
        cont_sum = np.zeros(n_q)
        cont_cnt = np.zeros(n_q)
        pos_sum = np.zeros(n_q)
        pos_cnt = np.zeros(n_q)
        kernel = QueryEvalKernel(
            queries, bounds=trace.bounds, cells_per_side=max(policy.alpha, 16)
        )
        updates_per_tick = np.zeros(t_total, dtype=np.int64)
        admitted_total = 0
        adaptations = 0
        ticks_measured = 0

        for tick in range(t_total):
            t = tick * trace.dt
            positions = trace.positions[tick]
            velocities = trace.velocities[tick]

            if tick % cfg.adapt_every == 0:
                grid = StatisticsGrid.from_snapshot(
                    trace.bounds,
                    policy.alpha,
                    positions,
                    trace.speeds(tick),
                    queries,
                )
                policy.adapt(grid, cfg.z)
                adaptations += 1

            # Nodes look up the throttler of their current shedding region.
            fleet.set_thresholds(policy.thresholds_for(positions))
            senders = fleet.observe(t, positions, velocities)
            updates_per_tick[tick] = senders.size

            fraction = policy.admission_fraction()
            if fraction < 1.0 and senders.size:
                keep = rng.random(senders.size) < fraction
                admitted = senders[keep]
            else:
                admitted = senders
            table.ingest(t, admitted, positions[admitted], velocities[admitted])
            admitted_total += int(admitted.size)

            if tick < cfg.warmup_ticks:
                continue
            ticks_measured += 1
            m = kernel.measure(positions, table.predict(t))
            cont_sum += np.where(m.has_true, m.containment_error, 0.0)
            cont_cnt += m.has_true
            pos_sum += np.where(m.has_believed, m.position_error, 0.0)
            pos_cnt += m.has_believed

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
            updates_sent=int(fleet.total_reports),
            updates_admitted=admitted_total,
            ticks_measured=ticks_measured,
            adaptations=adaptations,
            updates_per_tick=updates_per_tick,
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
