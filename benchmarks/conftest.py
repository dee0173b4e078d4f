"""Benchmark configuration: a shared bench-sized experiment scale.

Each benchmark regenerates one paper figure/table at a reduced (but
shape-preserving) scale and asserts the qualitative result the paper
reports, while pytest-benchmark records the runtime.  Traces and
reduction functions are memoized in-process across benchmarks (see
``repro.sim.scenario.build_scenario``), so the measured time is the
experiment itself, not scene construction.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import ExperimentScale

#: The scale all benchmarks run at: large enough that LIRA's regional
#: structure exists, small enough for a quick full-suite run.
BENCH = ExperimentScale(
    name="bench",
    n_nodes=600,
    duration=400.0,
    dt=10.0,
    side_meters=5000.0,
    collector_spacing=550.0,
    l=25,
    alpha=64,
    reduction_samples=8,
    adapt_every=15,
    seed=7,
)


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    return BENCH


@pytest.fixture(scope="session", autouse=True)
def _prewarm_scenario(bench_scale):
    """Build the shared trace/reduction once so the first benchmark's
    timing is not polluted by scene construction."""
    bench_scale.scenario()
