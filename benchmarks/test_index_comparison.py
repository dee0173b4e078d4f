"""Benchmark: moving-object index comparison under a dead-reckoning stream.

Not a paper figure — an ablation of the substrate choice.  The paper
says LIRA composes with any update-efficient index (TPR-tree [15],
B^x-style B+-tree indexing [8], grid indexes [9, 11]); here the
TPR-tree and the grid index ingest the same LIRA-shed update stream and
answer the same queries, asserting identical results while
pytest-benchmark records their costs.
"""

import pytest

from repro.core import LiraConfig, StatisticsGrid
from repro.geo import Rect
from repro.index import GridIndex
from repro.index.tpr_tree import MovingObject, TPRTree
from repro.motion import DeadReckoningFleet
from repro.sim import make_policies


@pytest.fixture(scope="module")
def update_stream(bench_scale):
    """The (report, query-time) stream a LIRA deployment produces."""
    scenario = bench_scale.scenario()
    trace = scenario.trace
    policy = make_policies(
        scenario, LiraConfig(l=bench_scale.l, alpha=bench_scale.alpha),
        include=("lira",),
    )["lira"]
    fleet = DeadReckoningFleet(trace.num_nodes)
    stream = []
    for tick in range(trace.num_ticks):
        t = tick * trace.dt
        positions = trace.positions[tick]
        if tick % bench_scale.adapt_every == 0:
            grid = StatisticsGrid.from_snapshot(
                trace.bounds, policy.alpha, positions, trace.speeds(tick),
                scenario.queries,
            )
            policy.adapt(grid, 0.5)
        fleet.set_thresholds(policy.thresholds_for(positions))
        for node_id in fleet.observe(t, positions, trace.velocities[tick]):
            stream.append(
                MovingObject(
                    int(node_id),
                    float(positions[node_id, 0]),
                    float(positions[node_id, 1]),
                    float(trace.velocities[tick][node_id, 0]),
                    float(trace.velocities[tick][node_id, 1]),
                    time=t,
                )
            )
    t_final = (trace.num_ticks - 1) * trace.dt
    b = trace.bounds
    query_rect = Rect(b.x1, b.y1, b.center.x, b.center.y)
    return trace, stream, query_rect, t_final


def _expected(stream, rect, t) -> set[int]:
    latest = {}
    for o in stream:
        latest[o.object_id] = o
    hits = set()
    for o in latest.values():
        x, y = o.position_at(t)
        if rect.contains_xy(x, y):
            hits.add(o.object_id)
    return hits


def test_tpr_tree_stream(benchmark, update_stream):
    trace, stream, rect, t = update_stream

    def run():
        tree = TPRTree(horizon=60.0, max_entries=8)
        for o in stream:
            tree.update(o)
        return set(tree.query(rect, t))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result == _expected(stream, rect, t)


def test_grid_index_stream(benchmark, update_stream):
    """Grid index over current positions: no motion model, so it must be
    refreshed at query time from the latest reports (what a grid-indexed
    server does each evaluation)."""
    trace, stream, rect, t = update_stream

    def run():
        index = GridIndex(trace.bounds, 32)
        latest = {}
        for o in stream:
            latest[o.object_id] = o
            index.insert(o.object_id, o.x, o.y)
        # Evaluation-time refresh: reposition to extrapolated positions.
        for o in latest.values():
            x, y = o.position_at(t)
            index.insert(o.object_id, x, y)
        return set(index.query(rect))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result == _expected(stream, rect, t)
