"""Benchmark: sustained throughput of the full three-layer LiraSystem.

Not a paper figure — an engineering artifact: how many simulated
seconds per wall-clock second the complete component path (node
protocol -> dead reckoning -> bounded queue -> node table -> history)
sustains at bench scale, as one shard and as four.
"""

import pytest

from repro.core import AnalyticReduction, LiraConfig
from repro.server import LiraSystem


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
