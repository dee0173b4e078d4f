"""The systems loop sends what the direct loop sends.

The direct loop (``tests/oracles/simulation.py``, what ``Simulation``
ran before) gives every node the Δ of its region straight from the
plan; ``Simulation`` now measures a K=1 ``LiraSystem``, which runs the
protocol: plans go out as per-station region subsets and each node looks
its Δ up in the subset it stored.  With the queue model lifted and z
pinned the two must pick the same senders and admit the same number of
reports on every tick, for every policy.  The monitoring space is
closed in both: a node on the map's upper edge (the road generator pins
the network's outer ring there) reads the Δ of the last row or column
of regions, not Δ⊢.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnalyticReduction, LiraConfig, LiraLoadShedder
from repro.experiments.common import SMALL
from repro.geo import Rect
from repro.queries import QueryDistribution, RangeQuery
from repro.server import LiraSystem
from repro.shedding import POLICIES, policy_factory
from repro.shedding.safe_region import SafeRegionPolicy
from repro.sim import QueryTimeline, Simulation, SimulationConfig

from tests.oracles.simulation import direct_ticks


def _assert_same_ticks(queries, policy, z, adapt_every=SMALL.adapt_every):
    """Run the direct loop and ``Simulation`` on ``policy`` (a
    ``POLICIES`` name or factory, built fresh for each) and compare them
    tick by tick."""
    scenario = replace(SMALL.scenario(), queries=queries)
    trace, reduction, lira = scenario.trace, scenario.reduction, SMALL.lira_config()
    config = SimulationConfig(z=z, adapt_every=adapt_every, seed=SMALL.seed)
    direct = policy_factory(policy)(LiraLoadShedder(lira, reduction), reduction)
    want = list(direct_ticks(trace, queries, direct, config))
    got = list(Simulation(scenario, policy, lira, config).ticks())
    assert len(got) == len(want) == trace.num_ticks
    for (tick, _, senders, admitted), (_, _, sent, kept) in zip(want, got):
        assert np.array_equal(senders, np.sort(sent)), (
            f"tick {tick}: {senders.size} vs {sent.size} senders"
        )
        assert admitted.size == kept, f"tick {tick}: {admitted.size} vs {kept} admitted"


def test_sender_sets_equal_on_every_tick_of_the_small_trace():
    scenario = SMALL.scenario()
    _assert_same_ticks(scenario.queries, "lira", 0.5)
    # The scene has nodes on the upper edges, so the rule is exercised.
    trace, top = scenario.trace, scenario.trace.bounds
    assert ((trace.positions[..., 0] == top.x2) | (trace.positions[..., 1] == top.y2)).any()


@pytest.mark.parametrize("z", [0.3, 0.5])
@pytest.mark.parametrize("name", list(POLICIES))
def test_every_paper_policy_matches_the_direct_loop(name, z):
    _assert_same_ticks(SMALL.scenario().queries, name, z)


@pytest.mark.parametrize("one_shot", [False, True], ids=["re-adapting", "one-shot"])
def test_phased_timeline_matches_the_direct_loop(one_shot):
    """The server's query set follows the timeline, so the grid of every
    adapt sees the queries active then (ext-adaptivity's workload)."""
    scenario = SMALL.scenario()
    trace = scenario.trace
    timeline = QueryTimeline.phased(
        [
            (0.0, scenario.workload(mn_ratio=0.01, seed=SMALL.seed)),
            (
                trace.duration / 2,
                scenario.workload(
                    mn_ratio=0.01, distribution=QueryDistribution.INVERSE, seed=SMALL.seed + 1
                ),
            ),
        ],
        end_time=trace.duration,
    )
    adapt_every = trace.num_ticks if one_shot else SMALL.adapt_every
    _assert_same_ticks(timeline, "lira", 0.5, adapt_every)


def test_safe_region_plan_matches_the_direct_loop():
    scenario = SMALL.scenario()

    def safe(shedder, reduction):
        return SafeRegionPolicy(scenario.queries, shedder.config)

    _assert_same_ticks(scenario.queries, safe, 1.0)


def _lifted_system(bounds, n_nodes, queries, reduction, config, z):
    """A K=1 ``LiraSystem`` with the queue model lifted and z pinned."""
    system = LiraSystem(
        bounds, n_nodes, queries, reduction, config,
        service_rate=1e12, queue_capacity=10**9, adaptive_throttle=False,
    )
    system.set_throttle_fraction(z)
    return system


BOUNDS = Rect(0.0, 0.0, 1000.0, 1000.0)
QUERIES = [
    RangeQuery(0, Rect(100.0, 100.0, 350.0, 300.0)),
    RangeQuery(1, Rect(600.0, 650.0, 800.0, 900.0)),
]
#: Where a drawn node goes: ``u``, ``v`` in [0, 1] place it along an
#: edge, pick a corner, or (to give the plan a shape) place it inside.
_W, _H = BOUNDS.width, BOUNDS.height
PLACES = {
    "x1": lambda u, v: (BOUNDS.x1, BOUNDS.y1 + u * _H),
    "x2": lambda u, v: (BOUNDS.x2, BOUNDS.y1 + u * _H),
    "y1": lambda u, v: (BOUNDS.x1 + u * _W, BOUNDS.y1),
    "y2": lambda u, v: (BOUNDS.x1 + u * _W, BOUNDS.y2),
    "corner": lambda u, v: (
        BOUNDS.x2 if u < 0.5 else BOUNDS.x1, BOUNDS.y2 if v < 0.5 else BOUNDS.y1
    ),
    "inside": lambda u, v: (BOUNDS.x1 + u * _W, BOUNDS.y1 + v * _H),
}


unit = st.floats(0.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(
    nodes=st.lists(
        st.tuples(st.sampled_from(sorted(PLACES)), unit, unit), min_size=30, max_size=80
    ),
    z=st.sampled_from([0.3, 0.5, 0.75]),
)
def test_edge_and_corner_nodes_read_the_plans_delta(nodes, z):
    """Every node's Δ after a tick is the plan's at its position
    (``SheddingPlan.thresholds_for``, what the direct loop installs)."""
    positions = np.array([PLACES[kind](u, v) for kind, u, v in nodes])
    velocities = np.zeros_like(positions)
    config = LiraConfig(l=13, alpha=16)
    reduction = AnalyticReduction(config.delta_min, config.delta_max)
    system = _lifted_system(BOUNDS, len(nodes), QUERIES, reduction, config, z)
    system.adapt(positions, np.full(len(nodes), 10.0))
    system.tick(0.0, positions, velocities, 10.0)
    plan = system.shards[0].plan
    assert np.array_equal(system.fleet.thresholds, plan.thresholds_for(positions))
