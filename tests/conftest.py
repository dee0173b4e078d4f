"""Shared fixtures: small deterministic scenes, traces, and reductions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AnalyticReduction, StatisticsGrid
from repro.geo import Rect
from repro.queries import QueryDistribution, generate_workload
from repro.roadnet import make_default_scene
from repro.sim import build_scenario
from repro.trace import Trace, TraceGenerator


@pytest.fixture(scope="session")
def small_scene():
    """A small road network + traffic model (~16 km^2)."""
    return make_default_scene(side_meters=4000.0, seed=3, collector_spacing=500.0)


@pytest.fixture(scope="session")
def small_trace(small_scene) -> Trace:
    """A 300-vehicle, 20-tick trace on the small scene."""
    network, traffic = small_scene
    generator = TraceGenerator(network, traffic, n_vehicles=300, seed=3)
    return generator.generate(duration=200.0, dt=10.0, warmup=50.0)


@pytest.fixture(scope="session")
def small_queries(small_trace):
    """Ten proportional range CQs over the small trace."""
    return generate_workload(
        small_trace.bounds,
        10,
        500.0,
        QueryDistribution.PROPORTIONAL,
        small_trace.snapshot(0),
        seed=3,
    )


@pytest.fixture(scope="session")
def small_grid(small_trace, small_queries) -> StatisticsGrid:
    """A 16x16 statistics grid over the small trace's first snapshot."""
    return StatisticsGrid.from_snapshot(
        small_trace.bounds,
        16,
        small_trace.snapshot(0),
        small_trace.speeds(0),
        small_queries,
    )


@pytest.fixture(scope="session")
def reduction() -> AnalyticReduction:
    """The default analytic reduction function on [5, 100] m."""
    return AnalyticReduction(5.0, 100.0)


@pytest.fixture(scope="session")
def tiny_scenario():
    """A memoized full scenario small enough for integration tests."""
    return build_scenario(
        n_nodes=400,
        duration=300.0,
        dt=10.0,
        seed=3,
        side_meters=4000.0,
        collector_spacing=500.0,
        reduction_samples=6,
    )


@pytest.fixture()
def unit_rect() -> Rect:
    return Rect(0.0, 0.0, 1.0, 1.0)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
