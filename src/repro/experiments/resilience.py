"""Resilience experiment: graceful degradation under a faulty network.

Sweeps uplink update-message loss over the *systems* loop
(:class:`~repro.server.LiraSystem` — every update flows through the real
node → station → queue → server path) and records how query accuracy
degrades, comparing LIRA's source-actuated, region-aware shedding
against the Random Drop regime (no source throttling; the server admits
a random fraction z of arrivals).

The paper never measures a lossy channel, but its premise — behave well
under adverse conditions — predicts the outcome: LIRA's errors should
fall off smoothly as the uplink loses messages (THROTLOOP sees the
lower arrival rate and reopens the budget, so the sources partially
compensate), while Random Drop stacks uncontrolled queue/admission
drops on top of channel loss and collapses.

Run from the CLI::

    python -m repro.experiments resilience --scale small

Faults are seeded: the same scale and loss rate reproduce the exact
same message fates and system statistics, run after run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.experiments.common import SMALL, ExperimentScale
from repro.faults import FaultInjector, FaultSpec
from repro.metrics import mean_containment_error
from repro.queries import evaluate_queries
from repro.server import LiraSystem, SystemStats

#: Uplink loss rates the acceptance sweep exercises.
DEFAULT_LOSS_RATES = (0.0, 0.05, 0.20, 0.50)

#: Server capacity as a fraction of the full-reporting update load
#: (n_nodes / dt updates per second).  Below ~1.0 the server is
#: overloaded whenever shedding is off — the regime LIRA exists for.
SERVICE_FRACTION = 0.35

#: Adaptation cadence of the systems loop, in ticks.
ADAPT_EVERY = 6


@dataclass
class ResilienceRun:
    """Outcome of one (policy, fault spec) systems-loop run."""

    policy: str
    mean_containment_error: float
    peak_queue_fraction: float
    queue_drops: int
    admission_drops: int
    mean_plan_staleness: float
    stats: SystemStats


def run_system(
    scale: ExperimentScale,
    policy: str,
    spec: FaultSpec | None = None,
    seed: int | None = None,
    max_ticks: int | None = None,
    n_shards: int = 1,
) -> ResilienceRun:
    """Run one seeded systems-loop deployment and measure degradation.

    ``spec=None`` disables the fault layer entirely (the perfect
    channel, bit-identical to a system constructed without one).
    Errors are averaged over every tick after the first adaptation
    period (bootstrap transients excluded).  With ``n_shards`` K > 1
    every shard gets the service rate and queue capacity (K shards
    provide K-fold capacity, as :class:`LiraSystem` documents), and the
    peak queue is the fullest shard's.
    """
    scenario = scale.scenario()
    trace = scenario.trace
    queries = scenario.queries
    queue_capacity = 200
    service_rate = SERVICE_FRACTION * trace.num_nodes / trace.dt
    faults = None
    if spec is not None:
        faults = FaultInjector(spec, seed=scale.seed if seed is None else seed)
    system = LiraSystem(
        bounds=trace.bounds,
        n_nodes=trace.num_nodes,
        queries=queries,
        reduction=scenario.reduction,
        config=scale.lira_config(),
        service_rate=service_rate,
        queue_capacity=queue_capacity,
        station_radius=scale.side_meters / 4.0,
        adaptive_throttle=True,
        faults=faults,
        policy=policy,
        policy_seed=scale.seed,
        n_shards=n_shards,
    )
    system.bootstrap(trace.positions[0], trace.velocities[0])
    n_ticks = trace.num_ticks if max_ticks is None else min(max_ticks, trace.num_ticks)
    errors = []
    staleness = []
    peak_queue = 0
    for tick in range(n_ticks):
        t = tick * trace.dt
        positions = trace.positions[tick]
        system.current_time = t  # adapt() stamps plan versions at install time
        if tick % ADAPT_EVERY == 0:
            system.adapt(positions, trace.speeds(tick))
        system.tick(t, positions, trace.velocities[tick], trace.dt)
        peak_queue = max(peak_queue, *(len(shard.server.queue) for shard in system.shards))
        if tick >= ADAPT_EVERY:
            shed_results = system.evaluate_queries(t)
            true_results = evaluate_queries(queries, positions)
            errors.append(mean_containment_error(true_results, shed_results))
            staleness.append(system.stats().mean_plan_staleness)
    stats = system.stats()
    return ResilienceRun(
        policy=policy,
        mean_containment_error=float(np.mean(errors)),
        peak_queue_fraction=peak_queue / queue_capacity,
        queue_drops=stats.queue_drops,
        admission_drops=stats.admission_drops,
        mean_plan_staleness=float(np.mean(staleness)),
        stats=stats,
    )


def run_resilience(
    scale: ExperimentScale = SMALL,
    loss_rates: tuple[float, ...] = DEFAULT_LOSS_RATES,
    max_ticks: int | None = None,
) -> ExperimentResult:
    """E_rr^C vs uplink loss rate: LIRA vs Random Drop, systems loop."""
    result = ExperimentResult(
        experiment_id="resilience",
        title="CQ containment error vs uplink update-message loss",
        x_label="uplink loss (%)",
        x=[rate * 100.0 for rate in loss_rates],
        notes=(
            "systems loop (LiraSystem) under seeded fault injection; "
            f"server capacity = {SERVICE_FRACTION:.0%} of full-reporting "
            "load; loss 0% runs with the fault layer disabled"
        ),
    )
    runs: dict[str, list[ResilienceRun]] = {"lira": [], "random-drop": []}
    for rate in loss_rates:
        spec = FaultSpec(uplink_loss=rate) if rate > 0 else None
        for policy in runs:
            runs[policy].append(
                run_system(scale, policy, spec=spec, max_ticks=max_ticks)
            )
    for policy, label in (("lira", "lira"), ("random-drop", "random-drop")):
        result.add_series(
            f"{label} E_rr^C",
            [r.mean_containment_error for r in runs[policy]],
        )
    for policy, label in (("lira", "lira"), ("random-drop", "random-drop")):
        result.add_series(
            f"{label} peak queue",
            [r.peak_queue_fraction for r in runs[policy]],
        )
        result.add_series(
            f"{label} drops",
            [r.queue_drops + r.admission_drops for r in runs[policy]],
        )
    result.add_series(
        "lira staleness (s)",
        [r.mean_plan_staleness for r in runs["lira"]],
    )
    return result
