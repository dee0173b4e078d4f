"""The dynamic simulation loop ``Simulation`` replaced: the parity oracle.

Before :class:`~repro.sim.Simulation` took a
:class:`~repro.sim.QueryTimeline`, a churning workload ran on a second
copy of the closed loop; this is its measurement over the direct loop
(``tests/oracles/simulation.py``).  It builds an unindexed
``QueryEvalKernel`` of the active queries on every measured tick and
``adapt_every=None`` adapts at tick 0 only.  ``Simulation(trace,
timeline, policy, config).run()`` must reproduce its per-tick errors,
times, update counts and adaptation count bit for bit
(``tests/test_dynamics.py::TestLoopParity``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.index import NodeTable
from repro.queries import QueryEvalKernel
from repro.shedding import SheddingPolicy
from repro.sim import QueryTimeline, SimulationConfig
from repro.trace import Trace

from tests.oracles.simulation import direct_ticks


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
    and the *currently active* queries, as a live server would: the
    direct loop of ``tests/oracles/simulation.py``, measured here.
    """
    n = trace.num_nodes
    table = NodeTable(n)
    times = np.empty(trace.num_ticks)
    errors = np.full(trace.num_ticks, np.nan)
    updates = np.zeros(trace.num_ticks, dtype=np.int64)
    config = SimulationConfig(z=z, adapt_every=adapt_every or trace.num_ticks, seed=seed)

    for tick, t, senders, admitted in direct_ticks(trace, timeline, policy, config):
        times[tick] = t
        positions = trace.positions[tick]
        velocities = trace.velocities[tick]
        updates[tick] = senders.size
        table.ingest(t, admitted, positions[admitted], velocities[admitted])
        active = timeline.active_at(t)
        if tick < warmup_ticks or not active:
            continue
        m = QueryEvalKernel(active).measure(positions, table.predict(t))
        if m.has_true.any():
            errors[tick] = float(m.containment_error[m.has_true].mean())

    return DynamicResult(
        times=times,
        containment_errors=errors,
        updates_per_tick=updates,
        adaptations=len(range(0, trace.num_ticks, config.adapt_every)),
    )
