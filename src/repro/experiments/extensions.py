"""Extension experiments beyond the paper's figures.

Each one tests a sentence of the paper and tells the cases apart:

* **ext-snapshot** — Section 3.1.1's motivation made quantitative: the
  position error of ad-hoc *snapshot* queries (over the whole
  population, answered from the trajectory archive) as a function of
  the fairness threshold Δ⇔.  CQ error improves with loose fairness;
  snapshot error degrades — the trade-off Δ⇔ navigates.
* **ext-sampling** — Section 3.2.1: "the statistics can easily be
  approximated using sampling."  Plan quality as the statistics grid
  samples a thinning fraction of the update stream.
* **ext-adaptivity** — Section 4.3.2's periodic re-adaptation: a
  re-adapting plan against a stale one-shot plan when the query
  workload shifts mid-trace.
* **ext-safe-region** — the related-work comparison: safe-region
  monitoring is accurate for CQs but neither controls load nor tracks
  the rest of the population, which LIRA does within Δ⊣.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.experiments.common import MEDIUM, ExperimentScale
from repro.history import TrajectoryStore, snapshot_position_error
from repro.motion import DeadReckoningFleet
from repro.sim import Simulation, SimulationConfig


def _simulate(scale, queries, policy, lira_config, z, adapt_every=None):
    """The closed loop on ``scale``'s scene with ``queries``, adapt
    schedule and seed: its result and the policy its shard served."""
    config = SimulationConfig(z=z, adapt_every=adapt_every or scale.adapt_every, seed=scale.seed)
    sim = Simulation(replace(scale.scenario(), queries=queries), policy, lira_config, config)
    return sim.run(), sim.system.shards[0].policy


def run_ext_snapshot(
    scale: ExperimentScale = MEDIUM,
    fairness_values: tuple[float, ...] = (0.0, 10.0, 25.0, 50.0, 95.0),
    z: float = 0.5,
) -> ExperimentResult:
    """CQ error vs snapshot error as the fairness threshold sweeps."""
    scenario = scale.scenario()
    trace = scenario.trace
    cq_errors, snap_errors = [], []
    for fairness in fairness_values:
        config = scale.lira_config(fairness=fairness)
        result, policy = _simulate(scale, scenario.queries, "lira", config, z)
        cq_errors.append(result.mean_position_error)
        snap_errors.append(_replay_snapshot_error(scenario, policy))
    result = ExperimentResult(
        experiment_id="ext-snapshot",
        title="CQ accuracy vs ad-hoc snapshot accuracy across fairness thresholds",
        x_label="fairness threshold (m)",
        x=list(fairness_values),
        notes="CQ error falls with loose fairness while whole-population "
        "snapshot error rises: the trade-off of Section 3.1.1",
    )
    result.add_series("CQ E_rr^P (m)", cq_errors)
    result.add_series("snapshot E_rr^P (m)", snap_errors)
    return result


def _replay_snapshot_error(scenario, policy) -> float:
    """Replay the trace under the policy's final plan, archiving reports,
    then average the whole-population snapshot error over sampled instants."""
    trace = scenario.trace
    fleet = DeadReckoningFleet(trace.num_nodes)
    store = TrajectoryStore(trace.num_nodes)
    for tick in range(trace.num_ticks):
        t = tick * trace.dt
        positions = trace.positions[tick]
        fleet.set_thresholds(policy.thresholds_for(positions))
        senders = fleet.observe(t, positions, trace.velocities[tick])
        store.record(
            t, senders, positions[senders], trace.velocities[tick][senders]
        )
    probes = np.linspace(2, trace.num_ticks - 1, 5).astype(int)
    errors = [
        snapshot_position_error(store, trace.positions[tick], tick * trace.dt)
        for tick in probes
    ]
    return float(np.nanmean(errors))


def run_ext_adaptivity(
    scale: ExperimentScale = MEDIUM,
    z: float = 0.5,
) -> ExperimentResult:
    """Periodic re-adaptation vs a stale one-shot plan under query churn.

    The workload shifts mid-trace from a proportional query set to an
    *inverse* one (queries jump to where nodes are scarce).  A
    re-adapting LIRA repartitions and follows; a one-shot plan keeps
    shedding aggressively exactly where the new queries now live.
    """
    from repro.queries import QueryDistribution
    from repro.sim import QueryTimeline

    scenario = scale.scenario()
    trace = scenario.trace
    switch_time = trace.duration / 2
    phase_a = scenario.workload(
        mn_ratio=0.01, distribution=QueryDistribution.PROPORTIONAL, seed=scale.seed
    )
    phase_b = scenario.workload(
        mn_ratio=0.01,
        distribution=QueryDistribution.INVERSE,
        seed=scale.seed + 1,
    )
    timeline = QueryTimeline.phased(
        [(0.0, phase_a), (switch_time, phase_b)], end_time=trace.duration
    )

    config = scale.lira_config()
    outcomes = {}
    # The one-shot plan adapts at tick 0 and its schedule never comes round again.
    for label, adapt_every in (("re-adapting", scale.adapt_every), ("one-shot", trace.num_ticks)):
        outcomes[label], _ = _simulate(scale, timeline, "lira", config, z, adapt_every)

    result = ExperimentResult(
        experiment_id="ext-adaptivity",
        title="Re-adaptation under query churn: error before/after a workload shift",
        x_label="phase (0=before shift, 1=after)",
        x=[0.0, 1.0],
        notes=f"workload switches proportional -> inverse at t={switch_time:.0f}s; "
        "the one-shot plan was computed for the first phase only",
    )
    for label, outcome in outcomes.items():
        result.add_series(
            f"{label} E_rr^C",
            [
                outcome.window_error(0.0, switch_time),
                outcome.window_error(switch_time, trace.duration),
            ],
        )
    return result


def run_ext_sampling(
    scale: ExperimentScale = MEDIUM,
    sampling_rates: tuple[float, ...] = (1.0, 0.3, 0.1, 0.03),
    z: float = 0.5,
) -> ExperimentResult:
    """Plan quality when the statistics grid is maintained by sampling.

    Section 3.2.1: "the statistics can easily be approximated using
    sampling."  Each adaptation window, only a fraction of the update
    stream feeds the grid (via :meth:`StatisticsGrid.ingest_updates` +
    :meth:`~StatisticsGrid.roll`); we measure how far the resulting
    query error drifts from the full-statistics plan.
    """
    from repro.core import LiraLoadShedder, StatisticsGrid
    from repro.index import NodeTable
    from repro.queries import QueryEvalKernel

    scenario = scale.scenario()
    trace = scenario.trace
    kernel = QueryEvalKernel(scenario.queries)
    rng = np.random.default_rng(scale.seed)
    errors, sent_counts = [], []
    for rate in sampling_rates:
        config = scale.lira_config()
        policy = LiraLoadShedder(config, scenario.reduction)
        grid = StatisticsGrid(trace.bounds, config.resolved_alpha)
        # Bootstrap window from the initial snapshot so the first
        # adaptation has statistics to work with.
        grid.set_node_statistics(trace.snapshot(0), trace.speeds(0))
        grid.set_query_statistics(scenario.queries)
        fleet = DeadReckoningFleet(trace.num_nodes)
        table = NodeTable(trace.num_nodes)
        tick_errors = []
        window_updates = 0
        for tick in range(trace.num_ticks):
            t = tick * trace.dt
            positions = trace.positions[tick]
            velocities = trace.velocities[tick]
            if tick % scale.adapt_every == 0:
                if tick > 0 and window_updates > 0:
                    # Convert the sampled window into node estimates.
                    expected = (
                        window_updates / max(trace.num_nodes, 1)
                    )
                    grid.roll(expected_updates_per_node=max(expected, 1e-9))
                    grid.set_query_statistics(scenario.queries)
                policy.adapt(grid, z)
                window_updates = 0
            fleet.set_thresholds(policy.thresholds_for(positions))
            senders = fleet.observe(t, positions, velocities)
            table.ingest(t, senders, positions[senders], velocities[senders])
            speeds = np.linalg.norm(velocities[senders], axis=1)
            keep = rng.random(senders.size) < rate
            kept = senders[keep]
            grid.ingest_updates(positions[kept, 0], positions[kept, 1], speeds[keep])
            window_updates += int(kept.size)
            if tick < 3:
                continue
            m = kernel.measure(positions, table.predict(t))
            if m.has_true.any():
                tick_errors.append(float(m.containment_error[m.has_true].mean()))
        errors.append(float(np.mean(tick_errors)))
        sent_counts.append(int(fleet.total_reports))
    result = ExperimentResult(
        experiment_id="ext-sampling",
        title="Plan quality with sampled statistics maintenance",
        x_label="sampling rate",
        x=list(sampling_rates),
        notes="error should degrade gracefully as the statistics sample thins",
    )
    result.add_series("E_rr^C", errors)
    result.add_series("updates sent", sent_counts)
    return result


def run_ext_safe_region(
    scale: ExperimentScale = MEDIUM,
    zs: tuple[float, ...] = (0.75, 0.5, 0.3),
) -> ExperimentResult:
    """LIRA vs safe-region monitoring (the related-work paradigm).

    Safe-region systems receive updates only when they can affect a CQ
    result: superb CQ accuracy per update, but no load control (their
    update volume is whatever the workload dictates) and near-blindness
    to the rest of the population (snapshot/historic queries).  LIRA at
    matched update volume keeps the whole population tracked within Δ⊣.
    """
    from repro.shedding.safe_region import SafeRegionPolicy

    scenario = scale.scenario()
    trace = scenario.trace

    # The safe-region run (z-independent).
    def safe_region(shedder, reduction):
        return SafeRegionPolicy(scenario.queries, shedder.config)

    safe_sim, safe = _simulate(scale, scenario.queries, safe_region, scale.lira_config(), 1.0)
    safe_snapshot = _replay_snapshot_error(scenario, safe)

    result = ExperimentResult(
        experiment_id="ext-safe-region",
        title="LIRA vs safe-region monitoring: updates, CQ error, snapshot error",
        x_label="z",
        x=list(zs),
        notes=(
            f"safe-region row (z-independent): {safe_sim.updates_sent} updates, "
            f"CQ E_rr^C {safe_sim.mean_containment_error:.4f}, snapshot error "
            f"{safe_snapshot:.1f} m — accurate CQs, untracked population"
        ),
    )
    lira_updates, lira_cq, lira_snap = [], [], []
    for z in zs:
        sim, policy = _simulate(scale, scenario.queries, "lira", scale.lira_config(), z)
        lira_updates.append(sim.updates_sent)
        lira_cq.append(sim.mean_containment_error)
        lira_snap.append(_replay_snapshot_error(scenario, policy))
    result.add_series("LIRA updates", lira_updates)
    result.add_series("LIRA CQ E_rr^C", lira_cq)
    result.add_series("LIRA snapshot E_rr^P (m)", lira_snap)
    result.add_series("safe-region updates", [safe_sim.updates_sent] * len(zs))
    result.add_series(
        "safe-region snapshot E_rr^P (m)", [safe_snapshot] * len(zs)
    )
    return result
