"""Benchmark: sustained throughput of the full three-layer LiraSystem.

Not a paper figure — an engineering artifact: how many simulated
seconds per wall-clock second the complete component path (node
protocol -> dead reckoning -> bounded queue -> node table -> history)
sustains at bench scale, as one shard and as four — and what four
shards add to the one-shard tick, as a gated ratio.
"""

import numpy as np
import pytest

from repro.core import AnalyticReduction, LiraConfig
from repro.geo import Rect
from repro.index import NodeTable
from repro.queries import QueryDistribution, generate_workload
from repro.server import LiraSystem
from repro.timing import Stopwatch


@pytest.mark.parametrize("n_shards", [1, 4])
def test_full_system_tick_throughput(benchmark, bench_scale, n_shards):
    scenario = bench_scale.scenario()
    trace = scenario.trace
    system = LiraSystem(
        bounds=trace.bounds,
        n_nodes=trace.num_nodes,
        queries=scenario.queries,
        reduction=AnalyticReduction(5.0, 100.0),
        config=LiraConfig(l=bench_scale.l, alpha=bench_scale.alpha),
        service_rate=10_000.0,
        station_radius=1500.0,
        adaptive_throttle=False,
        n_shards=n_shards,
    )
    system.set_throttle_fraction(0.5)
    system.bootstrap(trace.positions[0], trace.velocities[0])
    system.adapt(trace.positions[0], trace.speeds(0))

    state = {"tick": 1}

    def one_tick():
        tick = state["tick"] % trace.num_ticks
        if tick == 0:
            tick = 1
        system.tick(
            state["tick"] * trace.dt,
            trace.positions[tick],
            trace.velocities[tick],
            trace.dt,
        )
        state["tick"] += 1

    benchmark(one_tick)
    assert system.stats().updates_sent > 0


def test_sharded_tick_scales():
    """The node side runs once at every K, so four shards may add only
    routing, four substepped ingests and an owner flip per handoff to the
    one-shard tick: the K=4 median tick stays within 2.3x the K=1 median.

    N = 20 000 random walkers in a 20 km square, 100 queries, a 49-region
    plan at z = 0.5; both systems tick the same positions, alternately,
    and the median of 50 timed ticks (after 10 warm-up ticks) is compared.
    The bound sits between the ≈ 1.4x of an owner-flip handoff and the
    ≈ 3x of a handoff that moves table rows (np.delete / np.insert per
    source and destination shard), on a 2-core x86 container.
    """
    n_nodes, side, n_ticks, warmup = 20_000, 20_000.0, 60, 10
    rng = np.random.default_rng(5)
    bounds = Rect(0.0, 0.0, side, side)
    positions = rng.uniform(0.0, side, size=(n_nodes, 2))
    velocities = rng.uniform(-25.0, 25.0, size=(n_nodes, 2))
    queries = generate_workload(
        bounds, 100, 1000.0, QueryDistribution.PROPORTIONAL, positions, seed=5
    )
    systems = [
        LiraSystem(
            bounds, n_nodes, queries, AnalyticReduction(5.0, 100.0),
            config=LiraConfig(l=49, alpha=64), service_rate=10_000.0,
            adaptive_throttle=False, n_shards=n_shards,
        )
        for n_shards in (1, 4)
    ]
    for system in systems:
        system.set_throttle_fraction(0.5)
        system.bootstrap(positions, velocities)
    samples: list[list[float]] = [[], []]
    for tick in range(n_ticks):
        positions = positions + velocities
        velocities[(positions < 0.0) | (positions > side)] *= -1.0
        positions = np.clip(positions, 0.0, side)
        for system, timed in zip(systems, samples):
            if tick % 20 == 0:
                system.adapt(positions, np.hypot(velocities[:, 0], velocities[:, 1]))
            with Stopwatch() as sw:
                system.tick(float(tick + 1), positions, velocities, 1.0)
            if tick >= warmup:
                timed.append(sw.elapsed)
    k1, k4 = (float(np.median(timed)) for timed in samples)
    assert systems[1].stats().cross_handoffs > 0
    assert k4 <= 2.3 * k1, f"K=4 median tick {k4 * 1e3:.2f} ms vs K=1 {k1 * 1e3:.2f} ms"


def test_node_table_ingest_moves_rows():
    """Applying a batch is four scatters, and the two of whole ``(x, y)``
    rows move 16-byte records: 6 000 reports into a 10 000-node table
    cost at most 8x one 6 000-element float64 scatter.

    Medians of 100 alternated samples of 10 calls each.  On a 2-core x86
    container the ratio reads ≈ 4.5x; scattering the ``(n, 2)`` arrays
    row by row through numpy's 2-wide fancy index reads ≈ 15x.
    """
    rng = np.random.default_rng(7)
    n_nodes, n_reports, calls = 10_000, 6_000, 10
    ids = rng.choice(n_nodes, n_reports, replace=False)
    positions = rng.uniform(0.0, 1e4, size=(n_reports, 2))
    velocities = rng.normal(size=(n_reports, 2))
    table = NodeTable(n_nodes)
    flat, values = np.zeros(n_nodes), positions[:, 0].copy()
    samples: list[list[float]] = [[], []]
    for _ in range(100):
        with Stopwatch() as sw:
            for _ in range(calls):
                table.ingest(1.0, ids, positions, velocities)
        samples[0].append(sw.elapsed)
        with Stopwatch() as sw:
            for _ in range(calls):
                flat[ids] = values
        samples[1].append(sw.elapsed)
    ingest, scatter = (float(np.median(timed)) for timed in samples)
    assert table.updates_applied == 100 * calls * n_reports
    assert ingest <= 8 * scatter, f"ingest {ingest / scatter:.1f}x one scatter"
