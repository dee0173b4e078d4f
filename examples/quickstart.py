"""Quickstart: compare LIRA against the paper's baselines in ~30 seconds.

Builds a synthetic city (road network + one-hour-style car trace +
range-CQ workload), then runs all four load-shedding policies at a
throttle fraction of z = 0.5 — i.e. the server can afford only half of
the full-accuracy position-update volume — and prints the resulting
query accuracy.

Run:  python examples/quickstart.py
"""

from repro import LiraConfig, Simulation, SimulationConfig, build_scenario
from repro.shedding import POLICIES
from repro.sim import reference_update_count

THROTTLE_FRACTION = 0.5


def main() -> None:
    print("Building scenario (road network, trace, queries, f(delta))...")
    scenario = build_scenario(
        n_nodes=1500,
        duration=900.0,
        side_meters=8000.0,
        mn_ratio=0.01,
    )
    print(
        f"  {scenario.n_nodes} mobile nodes, {len(scenario.queries)} range CQs, "
        f"{scenario.trace.num_ticks} ticks of {scenario.trace.dt:.0f}s"
    )
    reference = reference_update_count(scenario.trace, scenario.delta_min)
    print(f"  full-accuracy update volume: {reference} reports\n")

    config = LiraConfig(l=100, alpha=128, z=THROTTLE_FRACTION)

    print(f"Policy comparison at throttle fraction z = {THROTTLE_FRACTION}:")
    header = f"{'policy':<14} {'E_rr^C':>10} {'E_rr^P (m)':>12} {'updates sent':>13} {'vs budget':>10}"
    print(header)
    print("-" * len(header))
    budget = THROTTLE_FRACTION * reference
    for name in POLICIES:
        sim = Simulation(
            scenario, name, config, SimulationConfig(z=THROTTLE_FRACTION, adapt_every=30)
        )
        result = sim.run()
        # Random Drop "sends" everything; what matters is what it admits.
        effective = (
            result.updates_admitted if name == "random-drop" else result.updates_sent
        )
        print(
            f"{name:<14} {result.mean_containment_error:>10.4f} "
            f"{result.mean_position_error:>12.2f} {effective:>13d} "
            f"{effective / budget:>9.2f}x"
        )

    print(
        "\nExpected: LIRA lowest error, Lira-Grid close behind, Uniform Delta "
        "several times worse, Random Drop an order of magnitude worse."
    )


if __name__ == "__main__":
    main()
