"""Benchmark: Figure 14 — server-side cost of configuring LIRA.

This is the paper's own timing experiment, so here pytest-benchmark
measures the adaptation step directly (one benchmark per (l, alpha)
cell would be noisy; we measure the default cell and assert the scaling
shape from the in-experiment timings).
"""


from repro.core import AnalyticReduction, LiraConfig, LiraLoadShedder, StatisticsGrid
from repro.experiments import run_fig14


def test_fig14_adaptation_step_timing(benchmark, bench_scale):
    """Directly benchmark one adaptation at the bench scale's defaults."""
    scenario = bench_scale.scenario()
    trace = scenario.trace
    grid = StatisticsGrid.from_snapshot(
        trace.bounds, bench_scale.alpha, trace.snapshot(0), trace.speeds(0),
        scenario.queries,
    )
    config = LiraConfig(l=bench_scale.l, alpha=bench_scale.alpha, z=0.5)
    shedder = LiraLoadShedder(config, AnalyticReduction(5.0, 100.0))
    plan = benchmark(shedder.adapt, grid)
    assert plan.num_regions == bench_scale.l


def test_fig14_scaling_shape(benchmark, bench_scale):
    """The full sweep: cost grows with both l and alpha."""
    result = benchmark.pedantic(
        lambda: run_fig14(
            scale=bench_scale, ls=(4, 25, 100), alphas=(16, 512), repeats=3
        ),
        rounds=1,
        iterations=1,
    )
    small = result.get_series("alpha=16").y
    large = result.get_series("alpha=512").y
    # alpha^2 term: with a 1024x cell-count gap the Stage-I cost must
    # dominate timing noise at the smallest l (where the l-term is tiny).
    assert large[0] > small[0]
    # l term: at fixed alpha, more regions cost more.
    assert large[-1] > large[0]
    assert small[-1] > small[0]


def test_fig14_paper_scale_point(benchmark, bench_scale):
    """The paper's largest partitioning, l = 1000 at α = 256: the cost
    keeps the O(l log l) shape — it grows with l, and by no more than
    1000·log 1000 / (100·log 100) = 15× the l = 100 cost."""
    result = benchmark.pedantic(
        lambda: run_fig14(scale=bench_scale, ls=(100, 250, 1000), alphas=(256,), repeats=3),
        rounds=1,
        iterations=1,
    )
    at_100, _, at_1000 = result.get_series("alpha=256").y
    assert at_100 < at_1000 <= 15 * at_100
