"""The systems loop sends what the measurement loop sends.

``Simulation`` (the paper figures' loop) gives every node the Δ of its
region straight from the plan; ``LiraSystem`` runs the protocol: plans
go out as per-station region subsets and each node looks its Δ up in
the subset it stored.  With the queue model lifted and z pinned the two
must pick the same senders on every tick.  The monitoring space is
closed in both: a node on the map's upper edge (the road generator pins
the network's outer ring there) reads the Δ of the last row or column
of regions, not Δ⊢.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnalyticReduction, LiraConfig
from repro.experiments.common import SMALL
from repro.geo import Rect
from repro.queries import RangeQuery
from repro.server import LiraSystem
from repro.sim import Simulation, SimulationConfig, make_policies


class _Senders:
    """A ``LiraSystem.history`` that keeps each tick's sender ids."""

    def __init__(self) -> None:
        self.ticks: list[np.ndarray] = []

    def record(self, t, node_ids, positions, velocities) -> None:
        self.ticks.append(np.sort(node_ids))


def _lifted_system(bounds, n_nodes, queries, reduction, config, z):
    """A K=1 ``LiraSystem`` with the queue model lifted and z pinned."""
    system = LiraSystem(
        bounds, n_nodes, queries, reduction, config,
        service_rate=1e12, queue_capacity=10**9, adaptive_throttle=False,
    )
    system.set_throttle_fraction(z)
    return system


def test_sender_sets_equal_on_every_tick_of_the_small_trace():
    scenario = SMALL.scenario()
    trace, config, z = scenario.trace, SMALL.lira_config(), 0.5
    policy = make_policies(scenario, config, include=("lira",))["lira"]
    simulation = Simulation(
        trace, scenario.queries, policy,
        SimulationConfig(z=z, adapt_every=SMALL.adapt_every, seed=SMALL.seed),
    )
    want = [np.sort(senders) for _, _, senders, _ in simulation.ticks()]

    system = _lifted_system(
        trace.bounds, trace.num_nodes, scenario.queries, scenario.reduction, config, z
    )
    system.history = got = _Senders()
    for tick in range(trace.num_ticks):
        if tick % SMALL.adapt_every == 0:
            system.adapt(trace.positions[tick], trace.speeds(tick))
        system.tick(tick * trace.dt, trace.positions[tick], trace.velocities[tick], trace.dt)

    # The scene has nodes on the upper edges, so the rule is exercised.
    top = trace.bounds
    assert ((trace.positions[..., 0] == top.x2) | (trace.positions[..., 1] == top.y2)).any()
    assert len(got.ticks) == len(want) == trace.num_ticks
    for tick, (a, b) in enumerate(zip(want, got.ticks)):
        assert np.array_equal(a, b), f"tick {tick}: {a.size} vs {b.size} senders"


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
    (``SheddingPlan.thresholds_for``, what ``Simulation`` installs)."""
    positions = np.array([PLACES[kind](u, v) for kind, u, v in nodes])
    velocities = np.zeros_like(positions)
    config = LiraConfig(l=13, alpha=16)
    reduction = AnalyticReduction(config.delta_min, config.delta_max)
    system = _lifted_system(BOUNDS, len(nodes), QUERIES, reduction, config, z)
    system.adapt(positions, np.full(len(nodes), 10.0))
    system.tick(0.0, positions, velocities, 10.0)
    plan = system.shards[0].plan
    assert np.array_equal(system.fleet.thresholds, plan.thresholds_for(positions))
