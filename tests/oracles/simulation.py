"""The direct closed loop ``Simulation`` ran before it measured ``LiraSystem``.

Each tick it re-adapts on schedule from a statistics grid of the
queries active at ``t``, gives every node the threshold of its plan
region straight from ``policy.thresholds_for`` (no stations, no
subsets), runs dead reckoning and admits what the policy admits,
drawing the admission lottery once per tick from
``default_rng(config.seed)``.  :class:`~repro.sim.Simulation` must send
the same nodes and admit the same number of reports on every tick
(``tests/test_loop_parity.py``).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator

import numpy as np

from repro.core.statistics_grid import StatisticsGrid
from repro.motion import DeadReckoningFleet
from repro.queries import RangeQuery
from repro.shedding import SheddingPolicy
from repro.sim import QueryTimeline, SimulationConfig, TimedQuery
from repro.trace import Trace


def direct_ticks(
    trace: Trace,
    queries: list[RangeQuery] | QueryTimeline,
    policy: SheddingPolicy,
    config: SimulationConfig,
) -> Iterator[tuple[int, float, np.ndarray, np.ndarray]]:
    """Yield ``(tick, t, senders, admitted)`` id arrays, tick by tick."""
    if not isinstance(queries, QueryTimeline):
        queries = QueryTimeline([TimedQuery(q, 0.0) for q in queries])
    entries = queries.entries
    change_times = queries.change_times()
    rng = np.random.default_rng(config.seed)
    fleet = DeadReckoningFleet(trace.num_nodes)
    active: list[int] = []
    phase = -1

    for tick in range(trace.num_ticks):
        t = tick * trace.dt
        positions = trace.positions[tick]
        velocities = trace.velocities[tick]
        if (crossed := bisect_right(change_times, t)) != phase:
            phase = crossed
            active = [i for i, e in enumerate(entries) if e.active_at(t)]

        if tick % config.adapt_every == 0:
            grid = StatisticsGrid.from_snapshot(
                trace.bounds,
                policy.alpha,
                positions,
                trace.speeds(tick),
                [entries[i].query for i in active],
            )
            policy.adapt(grid, config.z)

        fleet.set_thresholds(policy.thresholds_for(positions))
        senders = fleet.observe(t, positions, velocities)
        fraction = policy.admission_fraction()
        if fraction < 1.0 and senders.size:
            admitted = senders[rng.random(senders.size) < fraction]
        else:
            admitted = senders
        yield tick, t, senders, admitted
