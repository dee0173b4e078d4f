"""Adaptive overload control: THROTLOOP closing the loop on a real queue.

Simulates the paper's Section 3.4 scenario: the CQ server has a finite
service rate and a bounded input queue.  Mid-run the server slows down
(a competing workload steals CPU — the classic overload trigger), so
the full-accuracy update stream no longer fits.  Without load shedding
the queue overflows and updates are dropped at random; with THROTLOOP +
LIRA the throttle fraction z falls, the shedding plan cuts update volume
from the least query-critical regions, and the queue drains.  When the
slowdown ends, THROTLOOP opens z back up.

Run:  python examples/adaptive_overload.py
"""

import numpy as np

from repro.core import (
    LiraConfig,
    LiraLoadShedder,
    StatisticsGrid,
    measure_reduction_from_trace,
)
from repro.motion import DeadReckoningFleet
from repro.queries import QueryDistribution, generate_workload
from repro.server import MobileCQServer
from repro.trace import generate_default_trace

SUBSTEPS = 20  # interleave arrivals and service within a tick; fine enough
# that a tick's arrival burst never exceeds the queue capacity by itself


def main() -> None:
    print("Building trace and workload...")
    trace = generate_default_trace(
        n_vehicles=1200, duration=1800.0, dt=10.0, seed=5, side_meters=8000.0
    )
    queries = generate_workload(
        trace.bounds, 15, 1000.0, QueryDistribution.PROPORTIONAL,
        trace.snapshot(0), seed=5,
    )
    reduction = measure_reduction_from_trace(trace, 5.0, 100.0, n_samples=10)

    normal_load = _estimate_update_rate(trace, first_ticks=trace.num_ticks // 3)
    normal_rate = normal_load * 1.5   # comfortable headroom normally
    slow_rate = normal_load * 0.5     # overloaded during the incident
    surge_start, surge_end = trace.num_ticks // 3, 2 * trace.num_ticks // 3
    print(
        f"full-accuracy load ~{normal_load:.0f} upd/s; server serves "
        f"{normal_rate:.0f} upd/s, degraded to {slow_rate:.0f} upd/s during "
        f"t=[{surge_start * trace.dt:.0f}, {surge_end * trace.dt:.0f})s\n"
    )

    server = MobileCQServer(
        bounds=trace.bounds,
        n_nodes=trace.num_nodes,
        queries=queries,
        service_rate=normal_rate,
        queue_capacity=100,
    )
    config = LiraConfig(l=49, alpha=64)
    shedder = LiraLoadShedder(config, reduction, queue_capacity=100)
    shedder.use_adaptive_throttle()

    fleet = DeadReckoningFleet(trace.num_nodes)
    # Bootstrap: initial node registration happens out-of-band (it is a
    # one-time event, not steady-state update load).
    fleet.set_thresholds(5.0)
    initial = fleet.observe(0.0, trace.positions[0], trace.velocities[0])
    server.table.ingest(0.0, initial, trace.positions[0][initial],
                        trace.velocities[0][initial])
    server.take_load_measurement()  # discard the bootstrap period

    plan = None
    adapt_every = 6  # ticks (1 minute)
    print(f"{'t(s)':>6} {'mu':>6} {'z':>6} {'queue':>6} {'dropped':>8} {'sent/tick':>10}")

    for tick in range(1, trace.num_ticks):
        t = tick * trace.dt
        positions = trace.positions[tick]
        velocities = trace.velocities[tick]
        server.service_rate = slow_rate if surge_start <= tick < surge_end else normal_rate

        if plan is None or tick % adapt_every == 0:
            measurement = server.take_load_measurement()
            if measurement.period > 0:
                shedder.observe_load(measurement.arrival_rate, server.service_rate)
            grid = StatisticsGrid.from_snapshot(
                trace.bounds, config.resolved_alpha, positions,
                np.linalg.norm(velocities, axis=1), queries,
            )
            plan = shedder.adapt(grid)

        fleet.set_thresholds(plan.thresholds_for(positions))
        senders = fleet.observe(t, positions, velocities)
        # Arrivals spread over the tick; interleave with service.
        for chunk in np.array_split(senders, SUBSTEPS):
            server.receive_reports(t, chunk, positions[chunk], velocities[chunk])
            server.process(trace.dt / SUBSTEPS)

        if tick % adapt_every == 0:
            print(
                f"{t:>6.0f} {server.service_rate:>6.0f} {shedder.current_z:>6.2f} "
                f"{len(server.queue):>6} {server.queue.lifetime_dropped:>8} "
                f"{senders.size:>10}"
            )

    print(
        f"\nFinal: {server.queue.lifetime_dropped} updates dropped at the queue "
        f"over the whole run; final z = {shedder.current_z:.2f}.\n"
        "Reading: z dives when the slowdown hits, the sent/tick column "
        "follows it down (source-actuated shedding), and z recovers to 1.0 "
        "after the incident."
    )


def _estimate_update_rate(trace, first_ticks: int) -> float:
    """Updates/second a full-accuracy fleet generates early in the trace."""
    fleet = DeadReckoningFleet(trace.num_nodes)
    fleet.set_thresholds(5.0)
    for tick in range(first_ticks):
        fleet.observe(tick * trace.dt, trace.positions[tick], trace.velocities[tick])
    return (fleet.total_reports - trace.num_nodes) / (first_ticks * trace.dt)


if __name__ == "__main__":
    main()
