"""Vectorized struct-of-arrays fleet engine for trace generation.

The per-vehicle reference (``tests/oracles/vehicles.py``) steps one car
at a time with per-vehicle RNG calls; at the paper's population sizes
that loop would dominate scenario-build time.  :class:`FleetEngine` keeps the whole
fleet in numpy arrays (``seg_id``, ``origin_node``, ``offset``,
``speed_factor``, ``speed``) and advances every vehicle per tick with a
handful of array operations:

* The common case — the vehicle stays on its segment for the whole tick
  — is a single fused advance over the full population.
* The small crossing subset is resolved by a batched intersection-turn
  step: a precomputed CSR adjacency plus a per-node cumulative
  turn-weight table turn the weighted next-segment choice into one
  ``searchsorted`` over uniforms instead of a per-vehicle ``rng.choice``.

The engine is fully deterministic given its RNG (bit-reproducible across
runs for a fixed seed) and statistically equivalent to the reference —
same seeding distribution, same per-segment speed law, same
traffic-weighted turn distribution — but it consumes the RNG stream in
batched order, so individual vehicle paths differ from the
reference's.  See DESIGN.md ("Fleet-engine RNG semantics") for the exact
contract.
"""

from __future__ import annotations

import numpy as np

from repro.roadnet import RoadNetwork, TrafficVolumeModel

#: Per-tick cap on batched turn iterations.  Real networks need 2-4
#: (a vehicle crosses at most a few intersections per 10 s tick); the cap
#: only bites on degenerate graphs (zero-length segment cycles), where it
#: parks the affected vehicles at their current intersection for the rest
#: of the tick instead of spinning forever.
MAX_TURNS_PER_TICK = 64


class FleetEngine:
    """Whole-fleet vehicle simulation in numpy arrays.

    Dynamic state (one entry per vehicle):

    * ``seg_id`` — current segment index (int64)
    * ``origin_node`` — the endpoint the vehicle is moving away from
    * ``offset`` — meters traveled from ``origin_node`` along the segment
    * ``speed_factor`` — persistent per-driver speed multiplier
    * ``speed`` — current speed in m/s (0 until the first step)

    Static tables are derived once from the network and traffic model:
    segment endpoints/lengths/speed limits, node coordinates, CSR
    adjacency, and per-node cumulative turn weights.
    """

    def __init__(
        self,
        network: RoadNetwork,
        traffic: TrafficVolumeModel,
        n_vehicles: int,
        rng: np.random.Generator,
    ) -> None:
        if n_vehicles <= 0:
            raise ValueError("n_vehicles must be positive")
        self.network = network
        self.n_vehicles = n_vehicles

        arrays = network.segment_arrays()
        self.seg_a = arrays["a"]
        self.seg_b = arrays["b"]
        self.seg_len = arrays["length"]
        self.seg_limit = arrays["speed_limit"]
        self.node_xy = arrays["node_xy"]

        self.adj_indptr, self.adj_segs = network.adjacency_csr()
        self.turn_w = traffic.all_turn_weights()
        adj_w = self.turn_w[self.adj_segs]
        if adj_w.size and adj_w.min() < 0.0:
            raise ValueError("turn weights must be non-negative")
        # Global running cumsum over the CSR value array; per-node totals
        # and prefixes are recovered by subtracting the value just before
        # each node's slice.
        self.adj_cumw = np.cumsum(adj_w)
        self._adj_w = adj_w

        # Where each segment sits inside its endpoints' adjacency slices
        # (a segment appears exactly once under each endpoint).  Lets the
        # turn step find the arrival segment's CSR position with a gather
        # instead of a search.
        n_segs = len(network.segments)
        self.seg_pos_a = np.full(n_segs, -1, dtype=np.int64)
        self.seg_pos_b = np.full(n_segs, -1, dtype=np.int64)
        for node in range(len(network.nodes)):
            for pos in range(int(self.adj_indptr[node]), int(self.adj_indptr[node + 1])):
                seg = int(self.adj_segs[pos])
                if self.seg_a[seg] == node:
                    self.seg_pos_a[seg] = pos
                else:
                    self.seg_pos_b[seg] = pos

        # --- dynamic state, seeded like the object path -----------------
        probs = traffic.sampling_probabilities()
        self.seg_id = rng.choice(len(probs), size=n_vehicles, p=probs).astype(np.int64)
        toward_b = rng.random(n_vehicles) < 0.5
        self.origin_node = np.where(
            toward_b, self.seg_a[self.seg_id], self.seg_b[self.seg_id]
        )
        self.offset = rng.uniform(0.0, 1.0, n_vehicles) * self.seg_len[self.seg_id]
        self.speed_factor = rng.uniform(0.65, 1.0, n_vehicles)
        self.speed = np.zeros(n_vehicles, dtype=np.float64)

    # ------------------------------------------------------------------
    # stepping

    def step(self, dt: float, rng: np.random.Generator) -> None:
        """Advance every vehicle by ``dt`` seconds."""
        n = self.n_vehicles
        jitter = rng.uniform(0.9, 1.05, n)
        self.speed = self.seg_limit[self.seg_id] * self.speed_factor * jitter

        remaining = np.full(n, float(dt))
        distance_left = self.seg_len[self.seg_id] - self.offset
        travel = self.speed * remaining
        stays = travel < distance_left
        self.offset[stays] += travel[stays]

        crossing = np.nonzero(~stays)[0]
        turns = 0
        while crossing.size:
            turns += 1
            if turns > MAX_TURNS_PER_TICK:
                remaining[crossing] = 0.0
                break
            sid = self.seg_id[crossing]
            speed = np.maximum(self.speed[crossing], 1e-9)
            distance_left = self.seg_len[sid] - self.offset[crossing]
            remaining[crossing] -= distance_left / speed
            arrived = np.where(
                self.origin_node[crossing] == self.seg_a[sid],
                self.seg_b[sid],
                self.seg_a[sid],
            )
            new_seg = self._batched_turn(arrived, sid, rng)
            self.seg_id[crossing] = new_seg
            self.origin_node[crossing] = arrived
            self.offset[crossing] = 0.0

            # Fresh per-segment speed on the new road, as the object path
            # resamples its jitter each time through its while loop.
            new_jitter = rng.uniform(0.9, 1.05, crossing.size)
            new_speed = self.seg_limit[new_seg] * self.speed_factor[crossing] * new_jitter
            self.speed[crossing] = new_speed

            time_left = np.maximum(remaining[crossing], 0.0)
            travel = new_speed * time_left
            new_len = self.seg_len[new_seg]
            stays = travel < new_len
            advanced = crossing[stays]
            self.offset[advanced] = travel[stays]
            crossing = crossing[~stays & (remaining[crossing] > 0.0)]

    def _batched_turn(
        self,
        arrived: np.ndarray,
        cur_seg: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Weighted next-segment choice for a batch of crossing vehicles.

        Implements the object path's turn rule — pick an incident segment
        other than the current one with probability proportional to its
        turn weight, U-turning only at dead ends — as one ``searchsorted``
        over the per-node cumulative turn-weight table.  The current
        segment is excluded exactly by shifting the sampled target past
        its weight interval rather than by rejection sampling, keeping
        the RNG consumption fixed at one uniform per turning vehicle.
        """
        start = self.adj_indptr[arrived]
        end = self.adj_indptr[arrived + 1]
        degree = end - start

        cum_before_slice = self.adj_cumw[start] - self._adj_w[start]
        total = self.adj_cumw[end - 1] - cum_before_slice
        w_cur = self.turn_w[cur_seg]
        available = total - w_cur

        # CSR position of the segment the vehicle arrived on, under the
        # arrival node.
        cur_pos = np.where(
            arrived == self.seg_a[cur_seg],
            self.seg_pos_a[cur_seg],
            self.seg_pos_b[cur_seg],
        )
        cum_before_cur = self.adj_cumw[cur_pos] - w_cur - cum_before_slice

        target = rng.random(arrived.size) * available
        # Skip the current segment's weight interval.
        target = np.where(target >= cum_before_cur, target + w_cur, target)
        pos = np.searchsorted(self.adj_cumw, cum_before_slice + target, side="right")
        pos = np.clip(pos, start, end - 1)
        # Float-boundary landings on the excluded segment get nudged to a
        # neighbor inside the slice.
        on_cur = pos == cur_pos
        if np.any(on_cur):
            bump = np.where(cur_pos + 1 < end, 1, -1)
            pos = np.where(on_cur, np.clip(cur_pos + bump, start, end - 1), pos)
        new_seg = self.adj_segs[pos]

        # Dead ends (or zero available weight) U-turn on the same segment.
        dead = (degree <= 1) | (available <= 0.0)
        return np.where(dead, cur_seg, new_seg)

    # ------------------------------------------------------------------
    # recording

    def record(self, pos_out: np.ndarray, vel_out: np.ndarray) -> None:
        """Write current positions/velocities into ``(N, 2)`` arrays."""
        sid = self.seg_id
        other = np.where(
            self.origin_node == self.seg_a[sid], self.seg_b[sid], self.seg_a[sid]
        )
        origin_xy = self.node_xy[self.origin_node]
        other_xy = self.node_xy[other]
        delta = other_xy - origin_xy

        length = self.seg_len[sid]
        safe_len = np.where(length > 0.0, length, 1.0)
        t = np.clip(self.offset / safe_len, 0.0, 1.0)
        t = np.where(length > 0.0, t, 0.0)
        np.copyto(pos_out, origin_xy + delta * t[:, None])

        norm = np.hypot(delta[:, 0], delta[:, 1])
        safe_norm = np.where(norm > 0.0, norm, 1.0)
        heading = np.where(norm[:, None] > 0.0, delta / safe_norm[:, None], 0.0)
        speed = np.where(
            self.speed > 0.0, self.speed, self.seg_limit[sid] * self.speed_factor
        )
        np.copyto(vel_out, heading * speed[:, None])
