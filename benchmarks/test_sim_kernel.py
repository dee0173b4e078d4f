"""Micro-benchmarks of the simulation hot path: kernel vs brute force.

Tracks the three per-tick operations behind every accuracy figure —
the measurement step (query evaluation + error accounting), raw batch
query evaluation, and the periodic adapt step — for both the vectorized
:class:`~repro.queries.QueryEvalKernel` path and the brute-force
reference.  CI runs each once (``--benchmark-disable``); the medians
pytest-benchmark prints otherwise are for reading, not for gating —
what a change is held to is ``bench/`` + ``BENCHMARK.json``.
"""

import numpy as np
import pytest

from repro.core import LiraLoadShedder, StatisticsGrid
from repro.index import NodeTable
from repro.motion import DeadReckoningFleet
from repro.queries import QueryEvalKernel, evaluate_queries


@pytest.fixture(scope="module")
def measurement_scene(bench_scale):
    """A mid-trace (truth, believed) snapshot pair with realistic staleness."""
    scenario = bench_scale.scenario()
    trace = scenario.trace
    fleet = DeadReckoningFleet(trace.num_nodes)
    fleet.set_thresholds(25.0)
    table = NodeTable(trace.num_nodes)
    mid = trace.num_ticks // 2
    for tick in range(mid + 1):
        t = tick * trace.dt
        senders = fleet.observe(t, trace.positions[tick], trace.velocities[tick])
        table.ingest(
            t, senders, trace.positions[tick][senders], trace.velocities[tick][senders]
        )
    positions = trace.positions[mid]
    believed = table.predict(mid * trace.dt)
    kernel = QueryEvalKernel(
        scenario.queries, bounds=trace.bounds, cells_per_side=bench_scale.alpha
    )
    return scenario, positions, believed, kernel


def brute_force_measurement_tick(queries, positions, believed):
    """The pre-kernel measurement loop, per-query evaluate + setdiff1d."""
    cont = np.zeros(len(queries))
    pos = np.zeros(len(queries))
    believed_eval = np.where(np.isnan(believed), np.inf, believed)
    for qi, query in enumerate(queries):
        true_set = query.evaluate(positions)
        shed_set = query.evaluate(believed_eval)
        if true_set.size:
            missing = np.setdiff1d(true_set, shed_set, assume_unique=True).size
            extra = np.setdiff1d(shed_set, true_set, assume_unique=True).size
            cont[qi] = (missing + extra) / true_set.size
        if shed_set.size:
            pos[qi] = float(
                np.linalg.norm(believed[shed_set] - positions[shed_set], axis=1).mean()
            )
    return cont, pos


def test_sim_measurement_tick_kernel(benchmark, measurement_scene):
    _, positions, believed, kernel = measurement_scene
    m = benchmark(kernel.measure, positions, believed)
    assert m.has_true.any()


def test_sim_measurement_tick_bruteforce(benchmark, measurement_scene):
    scenario, positions, believed, kernel = measurement_scene
    cont, _ = benchmark(
        brute_force_measurement_tick, scenario.queries, positions, believed
    )
    expected = np.where(kernel.measure(positions, believed).has_true, cont, 0.0)
    np.testing.assert_array_equal(cont, expected)


def test_kernel_eval(benchmark, measurement_scene):
    scenario, positions, _, kernel = measurement_scene
    results = benchmark(kernel.evaluate, positions)
    assert len(results) == len(scenario.queries)


def test_bruteforce_eval(benchmark, measurement_scene):
    scenario, positions, _, _ = measurement_scene
    results = benchmark(evaluate_queries, scenario.queries, positions)
    assert len(results) == len(scenario.queries)


def test_adapt_step(benchmark, measurement_scene, bench_scale):
    """One policy re-adaptation: statistics-grid build + LIRA adapt."""
    scenario, positions, _, _ = measurement_scene
    trace = scenario.trace
    policy = LiraLoadShedder(bench_scale.lira_config(), scenario.reduction)
    speeds = trace.speeds(trace.num_ticks // 2)

    def adapt_once():
        grid = StatisticsGrid.from_snapshot(
            trace.bounds, policy.alpha, positions, speeds, scenario.queries
        )
        policy.adapt(grid, 0.5)

    benchmark(adapt_once)
    assert policy.thresholds_for(positions).shape == (trace.num_nodes,)
