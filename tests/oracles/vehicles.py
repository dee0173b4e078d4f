"""Per-vehicle trace generation: the oracle for ``FleetEngine``.

One :class:`Vehicle` object per car, stepped one at a time with
per-vehicle RNG calls.  The fleet engine draws its random numbers in a
batched order, so individual paths differ; the two must agree
*statistically* (speed distribution, density skew, dead-reckoning
report rates — ``tests/test_fleet_engine.py``).

Vehicles follow road segments at a per-class speed, turn at intersections
with probabilities proportional to traffic weights (so they gravitate to
expressways and hotspots, like the paper's volume-driven trace), and
occasionally dawdle or speed up.  Movement is deterministic given the
generator's RNG.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo import Point
from repro.roadnet import RoadNetwork, TrafficVolumeModel
from repro.trace import Trace

#: Cap on intersection turns within a single ``step`` call.  A vehicle
#: that reaches a zero-length segment makes no progress (``distance_left
#: == 0`` consumes no time), so without a cap the ``while remaining``
#: loop can spin forever on degenerate graphs; past the cap the vehicle
#: parks at its current intersection until the next tick.
MAX_TURNS_PER_STEP = 64


@dataclass
class Vehicle:
    """A car traversing the road network.

    State is (segment, direction, offset): the car is ``offset`` meters
    from ``origin_node`` heading toward the other endpoint of
    ``seg_id``.  ``speed_factor`` is a persistent per-driver multiplier
    on road speed limits.
    """

    seg_id: int
    origin_node: int
    offset: float
    speed_factor: float
    speed: float = 0.0

    def position(self, network: RoadNetwork) -> Point:
        """Current position on the network."""
        seg = network.segments[self.seg_id]
        if self.origin_node == seg.a:
            return network.point_on_segment(self.seg_id, self.offset)
        return network.point_on_segment(self.seg_id, seg.length - self.offset)

    def heading(self, network: RoadNetwork) -> Point:
        """Unit vector in the direction of travel (zero if degenerate)."""
        seg = network.segments[self.seg_id]
        a = network.nodes[self.origin_node]
        b = network.nodes[seg.other_end(self.origin_node)]
        d = b - a
        norm = d.norm()
        # Exact guard against a zero-length segment vector; any nonzero
        # norm, however tiny, divides fine.
        if norm == 0.0:
            return Point(0.0, 0.0)
        return Point(d.x / norm, d.y / norm)

    def current_speed_limit(self, network: RoadNetwork) -> float:
        return network.segments[self.seg_id].road_class.speed_limit

    def step(
        self,
        network: RoadNetwork,
        traffic: TrafficVolumeModel,
        dt: float,
        rng: np.random.Generator,
    ) -> None:
        """Advance the vehicle by ``dt`` seconds.

        The car moves at the segment speed limit scaled by its driver
        factor and a small per-tick jitter.  On reaching an intersection
        it picks the next segment with probability proportional to the
        traffic turn weights, avoiding a U-turn unless at a dead end.
        """
        remaining = dt
        turns = 0
        while remaining > 0.0:
            limit = self.current_speed_limit(network)
            self.speed = limit * self.speed_factor * rng.uniform(0.9, 1.05)
            seg = network.segments[self.seg_id]
            distance_left = seg.length - self.offset
            travel = self.speed * remaining
            if travel < distance_left:
                self.offset += travel
                return
            # Reach the far intersection and turn.
            remaining -= distance_left / max(self.speed, 1e-9)
            turns += 1
            if turns > MAX_TURNS_PER_STEP:
                # Zero-length segments consume no time, so a degenerate
                # graph can trap the loop; park at the intersection.
                self.offset = seg.length
                return
            arrived_at = seg.other_end(self.origin_node)
            self._turn(network, traffic, arrived_at, rng)

    def _turn(
        self,
        network: RoadNetwork,
        traffic: TrafficVolumeModel,
        node: int,
        rng: np.random.Generator,
    ) -> None:
        options = [s for s in network.incident_segments(node) if s != self.seg_id]
        if not options:
            # Dead end: U-turn on the same segment.
            options = [self.seg_id]
        weights = np.array([traffic.turn_weight(s) for s in options], dtype=np.float64)
        total = weights.sum()
        if total <= 0.0:
            choice = options[int(rng.integers(len(options)))]
        else:
            choice = options[int(rng.choice(len(options), p=weights / total))]
        self.seg_id = choice
        self.origin_node = node
        self.offset = 0.0


def generate_reference_trace(
    network: RoadNetwork,
    traffic: TrafficVolumeModel,
    n_vehicles: int,
    seed: int,
    duration: float,
    dt: float = 10.0,
    warmup: float = 0.0,
) -> Trace:
    """``TraceGenerator(...).generate(...)`` on the per-vehicle loop."""
    rng = np.random.default_rng(seed)
    probs = traffic.sampling_probabilities()
    vehicles = []
    for seg_id in rng.choice(len(probs), size=n_vehicles, p=probs):
        seg = network.segments[int(seg_id)]
        origin = seg.a if rng.random() < 0.5 else seg.b
        offset = float(rng.uniform(0.0, seg.length))
        speed_factor = float(rng.uniform(0.65, 1.0))
        vehicles.append(
            Vehicle(
                seg_id=int(seg_id),
                origin_node=origin,
                offset=offset,
                speed_factor=speed_factor,
            )
        )

    def step_all() -> None:
        for vehicle in vehicles:
            vehicle.step(network, traffic, dt, rng)

    for _ in range(int(round(warmup / dt))):
        step_all()
    num_ticks = int(np.ceil(duration / dt))
    positions = np.empty((num_ticks, n_vehicles, 2), dtype=np.float64)
    velocities = np.empty_like(positions)
    for t in range(num_ticks):
        for i, vehicle in enumerate(vehicles):
            p = vehicle.position(network)
            h = vehicle.heading(network)
            speed = vehicle.speed or (
                vehicle.current_speed_limit(network) * vehicle.speed_factor
            )
            positions[t, i] = p.x, p.y
            velocities[t, i] = h.x * speed, h.y * speed
        step_all()
    return Trace(bounds=network.bounds, dt=dt, positions=positions, velocities=velocities)
