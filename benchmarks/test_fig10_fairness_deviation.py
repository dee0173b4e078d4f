"""Benchmark: Figure 10 — fairness metrics vs fairness threshold."""

from repro.experiments import run_fig10

FAIRNESS = (10.0, 50.0, 95.0)


def test_fig10_fairness_deviation(benchmark, bench_scale):
    result = benchmark.pedantic(
        lambda: run_fig10(scale=bench_scale, fairness_values=FAIRNESS, z=0.75),
        rounds=1,
        iterations=1,
    )
    lira_dev = result.get_series("LIRA D_ev^C").y
    uniform_dev = result.get_series("Uniform D_ev^C").y
    # Paper: LIRA's std-dev of containment error stays below Uniform
    # Delta's across the sweep, and decreases as fairness loosens.  A
    # 10 m fairness threshold pins every throttler within 10 m of the
    # others — Uniform Delta by construction — so at 600 nodes that
    # point is a tie (within 5%), not an ordering.
    assert lira_dev[0] <= 1.05 * uniform_dev[0]
    for k in range(1, len(FAIRNESS)):
        assert lira_dev[k] <= uniform_dev[k] + 1e-12
    assert lira_dev[-1] <= lira_dev[0] + 1e-9
