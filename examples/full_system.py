"""Full-system walkthrough: all three LIRA layers wired together.

Unlike the measurement harness in `repro.sim`, every update here flows
through the real component path: mobile nodes attach to base stations,
download region subsets on hand-off, pick their throttler locally with
the 5x5 node-side index, dead-reckon, and push reports through the
server's bounded queue — while THROTLOOP steers the throttle fraction
and ad-hoc snapshot queries are answered from a trajectory archive the
script attaches (the system itself keeps only current state).

Run:  python examples/full_system.py
"""

import numpy as np

from repro.core import LiraConfig, measure_reduction_from_trace
from repro.geo import Rect
from repro.history import SnapshotQuery, TrajectoryStore
from repro.queries import QueryDistribution, generate_workload
from repro.server import LiraSystem
from repro.trace import generate_default_trace


def main() -> None:
    print("Building the city trace...")
    trace = generate_default_trace(
        n_vehicles=800, duration=1200.0, dt=10.0, seed=21, side_meters=7000.0
    )
    queries = generate_workload(
        trace.bounds, 10, 800.0, QueryDistribution.PROPORTIONAL,
        trace.snapshot(0), seed=21,
    )
    reduction = measure_reduction_from_trace(trace, 5.0, 100.0, n_samples=10)

    system = LiraSystem(
        bounds=trace.bounds,
        n_nodes=trace.num_nodes,
        queries=queries,
        reduction=reduction,
        config=LiraConfig(l=49, alpha=64),
        service_rate=30.0,          # deliberately tight: shedding matters
        queue_capacity=100,
        station_radius=1800.0,
        adaptive_throttle=True,
    )
    # The reader of the past brings the archive; attach before bootstrap.
    system.history = TrajectoryStore(system.n_nodes)
    system.bootstrap(trace.positions[0], trace.velocities[0])
    print(
        f"{trace.num_nodes} nodes, {len(queries)} CQs, "
        f"{len(system.network.stations)} base stations, "
        f"server capacity 30 upd/s\n"
    )

    adapt_every = 6
    print(f"{'t(s)':>6} {'z':>6} {'sent':>6} {'queue':>6} {'drops':>7} "
          f"{'handoffs':>9} {'bcast KB':>9}")
    for tick in range(trace.num_ticks):
        t = tick * trace.dt
        positions = trace.positions[tick]
        if tick % adapt_every == 0:
            system.adapt(positions, trace.speeds(tick))
        sent = system.tick(t, positions, trace.velocities[tick], trace.dt)
        if tick % (adapt_every * 4) == 0:
            s = system.stats()
            print(
                f"{t:>6.0f} {s.z:>6.2f} {sent:>6} {s.queue_length:>6} "
                f"{s.queue_drops:>7} {s.handoffs:>9} "
                f"{s.broadcast_bytes / 1024:>9.1f}"
            )

    # Live CQ results vs ground truth.
    t_final = (trace.num_ticks - 1) * trace.dt
    results = system.evaluate_queries(t_final)
    truth = [q.evaluate(trace.positions[-1]) for q in queries]
    recalls = [
        len(set(r.tolist()) & set(tr.tolist())) / len(tr)
        for r, tr in zip(results, truth)
        if len(tr) > 0
    ]
    print(f"\nCQ recall vs ground truth at t={t_final:.0f}s: "
          f"{np.mean(recalls):.2%} (mean over {len(recalls)} queries)")

    # An ad-hoc snapshot query into the past, served from the archive.
    past = (trace.num_ticks // 2) * trace.dt
    b = trace.bounds
    rect = Rect(b.x1, b.y1, b.center.x, b.center.y)
    snap = SnapshotQuery(rect, past)
    believed = snap.evaluate(system.history)
    actual = snap.evaluate_truth(trace.positions[trace.num_ticks // 2])
    overlap = len(set(believed.tolist()) & set(actual.tolist()))
    print(
        f"Snapshot query at t={past:.0f}s over the SW quadrant: "
        f"{len(believed)} believed / {len(actual)} actual members, "
        f"{overlap} in common — answerable because LIRA keeps every node "
        "tracked (the fairness threshold's purpose)."
    )


if __name__ == "__main__":
    main()
