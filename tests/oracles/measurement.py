"""Brute-force accuracy measurement: the loop ``QueryEvalKernel.measure`` reproduces.

One :meth:`RangeQuery.evaluate` per query and snapshot plus two
``np.setdiff1d`` per query per tick — the measurement loop every accuracy
figure ran on before the kernel.  :meth:`repro.queries.QueryEvalKernel.measure`
must return bit-identical numbers; :func:`run_brute_force` runs a whole
:class:`~repro.sim.Simulation` on this loop so the equivalence suites can
compare every ``SimulationResult`` field.  :func:`system_containment_per_tick`
is the other per-tick error path, the one the resilience experiment ran
before it was a list of ``SimJob``s: the system's own query answers
against a brute-force truth, averaged by ``repro.metrics``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from repro.metrics import mean_containment_error
from repro.queries import BatchMeasurement, RangeQuery, evaluate_queries
from repro.sim import Simulation, SimulationResult


class BruteForceMeasurement:
    """Stands in for ``QueryEvalKernel`` inside ``Simulation.run``."""

    def __init__(self, queries: list[RangeQuery], **_index_options) -> None:
        self.queries = queries

    def measure(self, positions: np.ndarray, believed: np.ndarray) -> BatchMeasurement:
        n_q = len(self.queries)
        containment = np.full(n_q, np.nan)
        position = np.full(n_q, np.nan)
        has_true = np.zeros(n_q, dtype=bool)
        has_believed = np.zeros(n_q, dtype=bool)
        # Unknown nodes cannot appear in any result rectangle.
        believed_eval = np.where(np.isnan(believed), np.inf, believed)
        for qi, query in enumerate(self.queries):
            true_set = query.evaluate(positions)
            shed_set = query.evaluate(believed_eval)
            if true_set.size:
                missing = np.setdiff1d(true_set, shed_set, assume_unique=True).size
                extra = np.setdiff1d(shed_set, true_set, assume_unique=True).size
                containment[qi] = (missing + extra) / true_set.size
                has_true[qi] = True
            if shed_set.size:
                distances = np.linalg.norm(
                    believed[shed_set] - positions[shed_set], axis=1
                )
                position[qi] = float(distances.mean())
                has_believed[qi] = True
        return BatchMeasurement(
            containment_error=containment,
            has_true=has_true,
            position_error=position,
            has_believed=has_believed,
        )


def run_brute_force(simulation: Simulation) -> SimulationResult:
    """``simulation.run()`` with the measurement done by the loop above."""
    with mock.patch("repro.sim.simulation.QueryEvalKernel", BruteForceMeasurement):
        return simulation.run()


def system_containment_per_tick(simulation: Simulation) -> np.ndarray:
    """Per-tick E_rr^C of a static-workload run from
    ``system.evaluate_queries`` (NaN on warmup ticks, 0.0 on a tick with
    no true result where ``Simulation`` reads NaN)."""
    trace = simulation.trace
    queries = [entry.query for entry in simulation.timeline.entries]
    errors = np.full(trace.num_ticks, np.nan)
    for tick, t, _, _ in simulation.ticks():
        if tick >= simulation.config.warmup_ticks:
            truth = evaluate_queries(queries, trace.positions[tick])
            errors[tick] = mean_containment_error(truth, simulation.system.evaluate_queries(t))
    return errors
