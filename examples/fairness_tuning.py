"""Tuning the fairness threshold: accuracy vs tracking-uniformity trade-off.

The fairness threshold Δ⇔ bounds how different two regions' throttlers
may be.  Tight fairness (small Δ⇔) keeps every node tracked at similar
accuracy — important for systems that also serve historic or ad-hoc
snapshot queries — but constrains the optimizer and raises CQ error.
This example sweeps Δ⇔ and reports both sides of the trade-off, plus a
snapshot-query probe: the position error of a random ad-hoc query over
nodes *outside* all installed CQs, which is what loose fairness hurts.

Run:  python examples/fairness_tuning.py
"""

import numpy as np

from repro import LiraConfig, LiraLoadShedder, Simulation, SimulationConfig, build_scenario
from repro.index import NodeTable
from repro.motion import DeadReckoningFleet


def main() -> None:
    print("Building scenario...")
    scenario = build_scenario(
        n_nodes=1200, duration=900.0, side_meters=8000.0, mn_ratio=0.01, seed=13
    )
    z = 0.5
    print(f"sweeping fairness threshold at z = {z}\n")
    header = (
        f"{'fairness (m)':>12} {'E_rr^C':>9} {'E_rr^P (m)':>11} "
        f"{'spread (m)':>11} {'snapshot err (m)':>17}"
    )
    print(header)
    print("-" * len(header))
    for fairness in (0.0, 10.0, 25.0, 50.0, 95.0):
        config = LiraConfig(l=49, alpha=64, z=z, fairness=fairness)
        sim = Simulation(
            scenario, "lira", config, SimulationConfig(z=z, adapt_every=20, seed=13)
        )
        result = sim.run()
        policy = sim.system.shedder  # LIRA's plan source is the shard's shedder
        spread = policy.plan.max_threshold_spread()
        snapshot_err = _snapshot_probe(scenario, policy, z)
        print(
            f"{fairness:>12.0f} {result.mean_containment_error:>9.4f} "
            f"{result.mean_position_error:>11.2f} {spread:>11.1f} "
            f"{snapshot_err:>17.2f}"
        )

    print(
        "\nReading: fairness=0 is the uniform-Delta degenerate case; loose "
        "fairness lowers CQ error but lets the whole-population (snapshot) "
        "position error grow in query-free regions."
    )


def _snapshot_probe(scenario, policy: LiraLoadShedder, z: float) -> float:
    """Mean position error of the *whole population* under the final plan.

    Replays the trace with the policy's last plan fixed, then measures
    the server-view error over all nodes — a proxy for ad-hoc snapshot
    query quality, which CQ-only metrics do not see.
    """
    trace = scenario.trace
    fleet = DeadReckoningFleet(trace.num_nodes)
    table = NodeTable(trace.num_nodes)
    errors = []
    for tick in range(trace.num_ticks):
        t = tick * trace.dt
        positions = trace.positions[tick]
        fleet.set_thresholds(policy.thresholds_for(positions))
        senders = fleet.observe(t, positions, trace.velocities[tick])
        table.ingest(t, senders, positions[senders], trace.velocities[tick][senders])
        if tick >= 3:
            believed = table.predict(t)
            errors.append(float(np.linalg.norm(believed - positions, axis=1).mean()))
    return float(np.mean(errors))


if __name__ == "__main__":
    main()
