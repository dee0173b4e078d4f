"""Seeded inputs: the true motion of the node population."""

from __future__ import annotations

import numpy as np


class Motion:
    """Seeded true positions; ``advance`` moves them one step.

    * ``wander`` — heading-drift wanderers (σ = 0.05 rad per step of
      ``dt`` seconds), reflected at the bounds: the motion of
      ``repro.loadtest``'s schedules, made one step at a time so that a
      long run of many nodes is never held in memory;
    * ``patch`` — 30 % of the nodes inside a fixed 3.2 km patch jitter
      ±120 m (about 5 % of the statistics cells change);
    * ``churn`` — every node moves (σ = 150 m), so every cell changes.
    """

    PATCH = (3_000.0, 3_000.0, 6_200.0, 6_200.0)

    def __init__(
        self,
        kind: str,
        n: int,
        side: float,
        rng: np.random.Generator,
        dt: float = 1.0,
        speed_range: tuple[float, float] = (5.0, 30.0),
    ) -> None:
        self.kind, self.side, self.rng, self.dt = kind, side, rng, dt
        self.positions = rng.uniform(0.0, side, (n, 2))
        self.speeds = rng.uniform(*speed_range, n)
        self.heading = rng.uniform(0.0, 2.0 * np.pi, n)
        self._set_velocities()

    def _set_velocities(self) -> None:
        self.velocities = (
            np.column_stack((np.cos(self.heading), np.sin(self.heading)))
            * self.speeds[:, None]
        )

    def advance(self) -> None:
        getattr(self, "_" + self.kind)()

    def _wander(self) -> None:
        pos = self.positions + self.velocities * self.dt
        vel = self.velocities
        for axis in (0, 1):
            under, over = pos[:, axis] < 0.0, pos[:, axis] > self.side
            pos[under, axis] = -pos[under, axis]
            pos[over, axis] = 2.0 * self.side - pos[over, axis]
            bounced = under | over
            if bounced.any():
                flipped = vel[bounced].copy()
                flipped[:, axis] = -flipped[:, axis]
                self.heading[bounced] = np.arctan2(flipped[:, 1], flipped[:, 0])
        self.positions = pos
        self.heading += self.rng.normal(0.0, 0.05, self.heading.size)
        self._set_velocities()

    def _patch(self) -> None:
        x1, y1, x2, y2 = self.PATCH
        pos = self.positions
        inside = np.flatnonzero(
            (pos[:, 0] >= x1) & (pos[:, 0] < x2) & (pos[:, 1] >= y1) & (pos[:, 1] < y2)
        )
        moved = self.rng.choice(inside, size=int(inside.size * 0.3), replace=False)
        pos[moved] = np.clip(
            pos[moved] + self.rng.uniform(-120.0, 120.0, (moved.size, 2)),
            [x1, y1],
            [x2 - 1e-9, y2 - 1e-9],
        )

    def _churn(self) -> None:
        step = self.rng.normal(0.0, 150.0, self.positions.shape)
        self.positions = np.clip(self.positions + step, 0.0, self.side - 1e-9)
