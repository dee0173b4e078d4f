"""Trace container: positions and velocities of a node population over time.

A :class:`Trace` is the reproduction's stand-in for the paper's one-hour
car position trace.  It is numpy-backed — ``positions`` has shape
``(T, N, 2)`` — so downstream consumers (dead reckoning, statistics grids,
query evaluation) can stay vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo import Rect


@dataclass
class Trace:
    """Positions/velocities of ``N`` mobile nodes across ``T`` ticks.

    Attributes:
        bounds: the monitoring region the trace lives in.
        dt: seconds between consecutive ticks.
        positions: float array of shape ``(T, N, 2)``.
        velocities: float array of shape ``(T, N, 2)``, instantaneous.
    """

    bounds: Rect
    dt: float
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self) -> None:
        if self.positions.ndim != 3 or self.positions.shape[2] != 2:
            raise ValueError("positions must have shape (T, N, 2)")
        if self.velocities.shape != self.positions.shape:
            raise ValueError("velocities must match positions shape")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def num_ticks(self) -> int:
        """Number of time steps ``T``."""
        return self.positions.shape[0]

    @property
    def num_nodes(self) -> int:
        """Population size ``N``."""
        return self.positions.shape[1]

    @property
    def duration(self) -> float:
        """Total trace duration in seconds."""
        return self.num_ticks * self.dt

    def snapshot(self, tick: int) -> np.ndarray:
        """Positions at one tick, shape ``(N, 2)``."""
        return self.positions[tick]

    def speeds(self, tick: int) -> np.ndarray:
        """Instantaneous speeds (m/s) at one tick, shape ``(N,)``."""
        return np.linalg.norm(self.velocities[tick], axis=1)

    def mean_speed(self) -> float:
        """Average speed over all nodes and ticks."""
        return float(np.linalg.norm(self.velocities, axis=2).mean())
