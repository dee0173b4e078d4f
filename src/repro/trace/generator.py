"""Trace generation: seeded vehicle simulation on a road network.

Replaces the paper's (unavailable) trace generator.  Vehicles are seeded
onto segments proportionally to traffic volume, then stepped forward in
discrete time; the resulting :class:`~repro.trace.trace.Trace` has the
skewed density and class-dependent speed heterogeneity LIRA exploits.

The fleet is stepped by :class:`~repro.trace.fleet.FleetEngine`
(struct-of-arrays numpy stepping), deterministic given ``seed``.  The
per-vehicle loop it is validated against (``tests/oracles/vehicles.py``)
draws from the RNG in a different order, so the two produce
statistically equivalent but not identical traces (see DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from repro.roadnet import RoadNetwork, TrafficVolumeModel
from repro.trace.fleet import FleetEngine
from repro.trace.trace import Trace


class TraceGenerator:
    """Generates position traces of ``n_vehicles`` cars on a road network.

    Fully deterministic given ``seed``.  A short warm-up period lets the
    population settle into the traffic model's steady-state distribution
    before recording begins.
    """

    def __init__(
        self,
        network: RoadNetwork,
        traffic: TrafficVolumeModel,
        n_vehicles: int,
        seed: int = 7,
    ) -> None:
        if n_vehicles <= 0:
            raise ValueError("n_vehicles must be positive")
        self.network = network
        self.traffic = traffic
        self.n_vehicles = n_vehicles
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._fleet = FleetEngine(network, traffic, n_vehicles, self._rng)

    def generate(
        self,
        duration: float,
        dt: float = 10.0,
        warmup: float = 0.0,
    ) -> Trace:
        """Simulate for ``duration`` seconds, recording every ``dt``.

        ``warmup`` seconds are simulated (in ``dt`` steps) before
        recording starts; use it to decorrelate from the seeding
        distribution.  Returns a :class:`Trace` with
        ``T = ceil(duration / dt)`` ticks.
        """
        if duration <= 0 or dt <= 0:
            raise ValueError("duration and dt must be positive")
        warmup_steps = int(round(warmup / dt))
        for _ in range(warmup_steps):
            self._fleet.step(dt, self._rng)

        num_ticks = int(np.ceil(duration / dt))
        positions = np.empty((num_ticks, self.n_vehicles, 2), dtype=np.float64)
        velocities = np.empty_like(positions)
        for t in range(num_ticks):
            self._fleet.record(positions[t], velocities[t])
            self._fleet.step(dt, self._rng)
        return Trace(
            bounds=self.network.bounds, dt=dt, positions=positions, velocities=velocities
        )


def generate_default_trace(
    n_vehicles: int = 2000,
    duration: float = 3600.0,
    dt: float = 10.0,
    seed: int = 7,
    side_meters: float = 14_000.0,
) -> Trace:
    """One-call trace: default scene + generator + one-hour simulation.

    With default arguments this mirrors the paper's setup (an hour-long
    car trace over ~200 km^2), at a laptop-friendly population size.
    """
    from repro.roadnet import make_default_scene

    network, traffic = make_default_scene(side_meters=side_meters, seed=seed)
    generator = TraceGenerator(network, traffic, n_vehicles=n_vehicles, seed=seed)
    return generator.generate(duration=duration, dt=dt, warmup=10 * dt)
