"""Closed-loop simulation: the one measurement of the systems loop.

A :class:`Simulation` runs one (scenario, policy) combination on a
:class:`~repro.server.LiraSystem` deployed as its :class:`Deployment`
says: each tick every node reads its threshold from the plan subset its
station broadcast, reports via dead reckoning, and the servers ingest
what the policy admits.  Periodically the policy serves a new plan from
fresh statistics of the queries installed at that tick (a static list,
or a churning :class:`~repro.sim.dynamics.QueryTimeline`, Section
4.3.2).  The simulation itself only measures: query results against the
servers' believed positions, compared with ground truth.

The default deployment (K=1, queue lifted, z pinned) is the measurement
behind every accuracy figure in the paper (Figures 4-13); the per-tick
plan lookup it replaced is the parity oracle
``tests/oracles/simulation.py``.  The resilience experiment deploys a
bounded queue under THROTLOOP, faults and K shards.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.core import LiraConfig
from repro.faults import FaultInjector, FaultSpec
from repro.metrics.accuracy import FairnessStats, fairness_stats
from repro.motion import DeadReckoningFleet
from repro.queries import QueryEvalKernel, RangeQuery
from repro.server import LiraSystem, SystemStats
from repro.shedding import PolicyFactory
from repro.sim.dynamics import QueryTimeline, TimedQuery
from repro.sim.scenario import Scenario
from repro.trace import Trace


@dataclass
class SimulationConfig:
    """Knobs of one simulation run; ``z=None`` lets THROTLOOP set z."""

    z: float | None = 0.5
    adapt_every: int = 30
    warmup_ticks: int = 3
    seed: int = 7

    def __post_init__(self) -> None:
        if self.z is not None and not (0.0 <= self.z <= 1.0):
            raise ValueError("z must be in [0, 1]")
        if self.adapt_every < 1:
            raise ValueError("adapt_every must be >= 1")
        if self.warmup_ticks < 0:
            raise ValueError("warmup_ticks must be >= 0")


@dataclass(frozen=True)
class Deployment:
    """The :class:`~repro.server.LiraSystem` a simulation measures, in its
    own keywords; ``None`` lifts the queue model (every report applied
    within its tick) and ``faults`` is seeded from the run's seed.  The
    default registers the population through tick 0, as the paper
    figures always have; any other deployment bootstraps it out of band
    first, which K > 1 requires."""

    service_rate: float | None = None
    queue_capacity: int | None = None
    station_radius: float = 2000.0
    faults: FaultSpec | None = None
    n_shards: int = 1


@dataclass
class SimulationResult:
    """Aggregated accuracy and cost measurements of one run.

    Per-query arrays follow the timeline's entries.  ``containment_per_tick``
    is NaN on warmup ticks and on ticks where no query has a true result.
    ``queue_per_tick`` is the fullest shard's queue length after each
    tick, ``staleness_per_tick`` the station-weighted mean age of the
    plans served then, and ``stats`` the system's counters at the end.
    """

    policy_name: str
    z: float | None
    mean_containment_error: float
    mean_position_error: float
    containment_fairness: FairnessStats
    position_fairness: FairnessStats
    per_query_containment: np.ndarray
    per_query_position: np.ndarray
    updates_sent: int
    updates_admitted: int
    ticks_measured: int
    stats: SystemStats
    adaptations: int = 0
    updates_per_tick: np.ndarray = field(default_factory=lambda: np.empty(0))
    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    containment_per_tick: np.ndarray = field(default_factory=lambda: np.empty(0))
    queue_per_tick: np.ndarray = field(default_factory=lambda: np.empty(0))
    staleness_per_tick: np.ndarray = field(default_factory=lambda: np.empty(0))

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


def _plan_staleness(system: LiraSystem, t: float) -> float:
    """:attr:`SystemStats.mean_plan_staleness` at ``t``, the same sum."""
    networks = [shard.network for shard in system.shards if shard.network is not None]
    ages = [network.staleness(t)[0] for network in networks]
    if len(ages) == 1:
        return ages[0]
    counts = [len(network.stations) for network in networks]
    return sum(age * count for age, count in zip(ages, counts)) / sum(counts)


class Simulation:
    """Runs one (scenario, policy, deployment) combination to completion.

    ``policy`` is a :data:`~repro.shedding.POLICIES` name or factory, which
    each shard applies to its own shedder (``lira_config`` and the
    scenario's reduction); the one served is ``system.shards[0].policy``.
    ``scenario.queries`` is a static list, or a :class:`QueryTimeline` a
    churning run puts in its place (``dataclasses.replace``); a list is a
    one-phase timeline.  Per-tick accuracy comes from
    :meth:`~repro.queries.QueryEvalKernel.measure`, rebuilt only when the
    active query set changes; the brute-force per-query loop it is
    proved bit-identical to lives in ``tests/oracles/measurement.py``.
    """

    def __init__(
        self,
        scenario: Scenario,
        policy: str | PolicyFactory,
        lira_config: LiraConfig | None = None,
        config: SimulationConfig | None = None,
        deployment: Deployment = Deployment(),
    ) -> None:
        queries: list[RangeQuery] | QueryTimeline = scenario.queries
        if not isinstance(queries, QueryTimeline):
            queries = QueryTimeline([TimedQuery(q, 0.0) for q in queries])
        if not queries.entries:
            raise ValueError("at least one query is required")
        self.scenario = scenario
        self.trace = scenario.trace
        self.timeline = queries
        self.policy = policy
        self.lira_config = lira_config
        self.config = config or SimulationConfig()
        self.deployment = deployment

    def ticks(self) -> Iterator[tuple[int, float, np.ndarray, int]]:
        """Run the closed loop, yielding ``(tick, t, senders, admitted)``:
        the ids of the nodes that reported and how many the servers kept
        at admission.

        Each tick first points every server's query set (what the grid
        of its next adapt reads; the simulation measures with its own
        kernel) at the queries active at ``t`` and re-adapts on
        schedule, then ticks :attr:`system` on the trace's true
        positions.  While a step is out, :attr:`system` is the state
        after that tick's ingest and ``self.active`` the indices of the
        timeline entries active at ``t`` (a new list only when the set
        changes).
        """
        trace, cfg, d = self.trace, self.config, self.deployment
        entries = self.timeline.entries
        change_times = self.timeline.change_times()
        # Constructed with the queries active at 0 (what ``evaluate_queries``
        # answers); each server's query set follows the timeline below.
        self.system = system = LiraSystem(
            trace.bounds, trace.num_nodes, [e.query for e in entries if e.active_at(0.0)],
            self.scenario.reduction, self.lira_config,
            service_rate=1e12 if d.service_rate is None else d.service_rate,
            queue_capacity=trace.num_nodes if d.queue_capacity is None else d.queue_capacity,
            station_radius=d.station_radius, adaptive_throttle=cfg.z is None,
            faults=None if d.faults is None else FaultInjector(d.faults, seed=cfg.seed),
            policy=self.policy, policy_seed=cfg.seed, n_shards=d.n_shards,
        )
        if cfg.z is not None:
            system.set_throttle_fraction(cfg.z)
        system.history = batch = _LastBatch()
        if d != Deployment():
            system.bootstrap(trace.positions[0], trace.velocities[0])
        servers = [shard.server for shard in system.shards]
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
                    for server in servers:
                        server.queries = [entries[i].query for i in active]

            system.current_time = t  # adapt() stamps plan versions at install time
            if tick % cfg.adapt_every == 0:
                system.adapt(positions, trace.speeds(tick))
                self.adaptations += 1

            shed = sum(server.counts.shed for server in servers)
            sent = system.tick(t, positions, trace.velocities[tick], trace.dt)
            yield tick, t, batch.senders, sent - (sum(s.counts.shed for s in servers) - shed)

    def run(self) -> SimulationResult:
        """Execute the closed loop over the whole trace and measure it."""
        trace, cfg = self.trace, self.config
        entries = self.timeline.entries
        n_q, t_total = len(entries), trace.num_ticks
        cont_sum = np.zeros(n_q)
        cont_cnt = np.zeros(n_q)
        pos_sum = np.zeros(n_q)
        pos_cnt = np.zeros(n_q)
        times = np.empty(t_total)
        per_tick = np.full(t_total, np.nan)
        updates_per_tick = np.zeros(t_total, dtype=np.int64)
        queue_per_tick = np.zeros(t_total, dtype=np.int64)
        staleness_per_tick = np.zeros(t_total)
        admitted_total = 0
        ticks_measured = 0
        kernel_for: list[int] | None = None

        for tick, t, senders, admitted in self.ticks():
            shards = self.system.shards
            times[tick] = t
            updates_per_tick[tick] = senders.size
            queue_per_tick[tick] = max(len(shard.server.queue) for shard in shards)
            staleness_per_tick[tick] = _plan_staleness(self.system, t)
            admitted_total += admitted
            if tick < cfg.warmup_ticks or not self.active:
                continue
            if kernel_for is not self.active:
                kernel_for, rows = self.active, np.asarray(self.active)
                kernel = QueryEvalKernel(
                    [entries[i].query for i in kernel_for],
                    bounds=trace.bounds,
                    cells_per_side=max(shards[0].policy.alpha, 16),
                )
            ticks_measured += 1
            m = kernel.measure(trace.positions[tick], shards[0].server.table.predict(t))
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
            policy_name=self.system.shards[0].policy.name,
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
            stats=self.system.stats(),
            adaptations=self.adaptations,
            updates_per_tick=updates_per_tick,
            times=times,
            containment_per_tick=per_tick,
            queue_per_tick=queue_per_tick,
            staleness_per_tick=staleness_per_tick,
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
