"""Resilience experiment: graceful degradation under a faulty network.

Sweeps uplink update-message loss over a bounded, THROTLOOP-driven
:class:`~repro.sim.Deployment` of the one measured loop
(:class:`~repro.sim.Simulation` on a :class:`~repro.server.LiraSystem` —
every update flows through the real node → station → queue → server
path), one :class:`~repro.experiments.runner.SimJob` per loss rate and
policy, and records how query accuracy degrades, comparing LIRA's
source-actuated, region-aware shedding against the Random Drop regime
(no source throttling; the server admits a random fraction z of
arrivals).

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

from dataclasses import replace

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.experiments.common import SMALL, ExperimentScale
from repro.experiments.runner import SimJob, run_jobs
from repro.faults import FaultSpec
from repro.sim import Deployment

#: Uplink loss rates the sweep runs.
LOSS_RATES = (0.0, 0.05, 0.20, 0.50)

#: Server capacity as a fraction of the full-reporting update load
#: (n_nodes / dt updates per second).  Below ~1.0 the server is
#: overloaded whenever shedding is off — the regime LIRA exists for.
SERVICE_FRACTION = 0.35

#: Bounded input queue of each shard, in reports.
QUEUE_CAPACITY = 200

#: Adaptation cadence of the systems loop, in ticks; errors and plan
#: staleness are averaged from the end of the first period on
#: (bootstrap transients excluded).
ADAPT_EVERY = 6

#: The policies the sweep compares.
COMPARED = ("lira", "random-drop")


def run_resilience(scale: ExperimentScale = SMALL, n_shards: int = 1) -> ExperimentResult:
    """E_rr^C vs uplink loss rate: LIRA vs Random Drop, systems loop.

    Every (loss rate, policy) pair is one :class:`SimJob` on a bounded
    deployment whose THROTLOOP sets z.  With ``n_shards`` K > 1 every
    shard gets the service rate and queue capacity (K shards provide
    K-fold capacity, as :class:`~repro.server.LiraSystem` documents) and
    the peak queue is the fullest shard's.
    """
    cadence = replace(scale, adapt_every=ADAPT_EVERY)
    jobs = [
        SimJob(
            cadence, policy, None, scale.lira_config(),
            deployment=Deployment(
                service_rate=SERVICE_FRACTION * scale.n_nodes / scale.dt,
                queue_capacity=QUEUE_CAPACITY,
                station_radius=scale.side_meters / 4.0,
                faults=FaultSpec(uplink_loss=rate) if rate > 0 else None,
                n_shards=n_shards,
            ),
        )
        for rate in LOSS_RATES
        for policy in COMPARED
    ]
    results = run_jobs(jobs)
    runs = {policy: results[k :: len(COMPARED)] for k, policy in enumerate(COMPARED)}
    result = ExperimentResult(
        experiment_id="resilience",
        title="CQ containment error vs uplink update-message loss",
        x_label="uplink loss (%)",
        x=[rate * 100.0 for rate in LOSS_RATES],
        notes=(
            "systems loop (LiraSystem) under seeded fault injection; "
            f"server capacity = {SERVICE_FRACTION:.0%} of full-reporting "
            "load; loss 0% runs with the fault layer disabled"
        ),
    )
    t_from = ADAPT_EVERY * scale.dt
    for policy in COMPARED:
        result.add_series(f"{policy} E_rr^C", [r.window_error(t_from) for r in runs[policy]])
    for policy in COMPARED:
        result.add_series(
            f"{policy} peak queue",
            [int(r.queue_per_tick.max()) / QUEUE_CAPACITY for r in runs[policy]],
        )
        result.add_series(
            f"{policy} drops",
            [r.stats.queue_drops + r.stats.admission_drops for r in runs[policy]],
        )
    result.add_series(
        "lira staleness (s)",
        [float(np.mean(r.staleness_per_tick[ADAPT_EVERY:])) for r in runs["lira"]],
    )
    return result
