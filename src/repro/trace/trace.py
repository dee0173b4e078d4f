"""Trace container: positions and velocities of a node population over time.

A :class:`Trace` is the reproduction's stand-in for the paper's one-hour
car position trace.  It is numpy-backed — ``positions`` has shape
``(T, N, 2)`` — so downstream consumers (dead reckoning, statistics grids,
query evaluation) can stay vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.geo import Rect

#: On-disk ``.npz`` format version written by :meth:`Trace.save`.
#: Version 1 files (no ``version`` field) are still readable; bump this
#: whenever the layout changes incompatibly.
TRACE_FORMAT_VERSION = 2


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

    def save(self, path: str | Path, compressed: bool = True) -> None:
        """Persist to a ``.npz`` file (positions, velocities, metadata).

        The file carries a format version (:data:`TRACE_FORMAT_VERSION`)
        so readers can reject layouts they do not understand.
        ``compressed=False`` trades ~10% larger files for several-fold
        faster loads — the trace cache uses it because load latency is
        its whole point.
        """
        writer = np.savez_compressed if compressed else np.savez
        writer(
            Path(path),
            positions=self.positions,
            velocities=self.velocities,
            dt=np.array([self.dt]),
            bounds=np.array(
                [self.bounds.x1, self.bounds.y1, self.bounds.x2, self.bounds.y2]
            ),
            version=np.array([TRACE_FORMAT_VERSION], dtype=np.int64),
        )

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Load and validate a trace previously written by :meth:`save`.

        Raises ``ValueError`` on unknown format versions, missing or
        malformed fields, non-finite samples, or positions outside the
        stored bounds; shape consistency is enforced by the constructor.
        """
        with np.load(Path(path)) as data:
            fields = set(data.files)
            missing = {"positions", "velocities", "dt", "bounds"} - fields
            if missing:
                raise ValueError(f"trace file {path} is missing fields {sorted(missing)}")
            version = int(data["version"][0]) if "version" in fields else 1
            if version > TRACE_FORMAT_VERSION:
                raise ValueError(
                    f"trace file {path} has format version {version}; this "
                    f"reader supports <= {TRACE_FORMAT_VERSION}"
                )
            bounds_arr = np.asarray(data["bounds"], dtype=np.float64)
            if bounds_arr.shape != (4,):
                raise ValueError(f"trace file {path} has malformed bounds")
            bounds = Rect(*bounds_arr.tolist())
            trace = cls(
                bounds=bounds,
                dt=float(data["dt"][0]),
                positions=data["positions"],
                velocities=data["velocities"],
            )
        if not (
            np.isfinite(trace.positions).all() and np.isfinite(trace.velocities).all()
        ):
            raise ValueError(f"trace file {path} contains non-finite samples")
        xs = trace.positions[:, :, 0]
        ys = trace.positions[:, :, 1]
        if trace.positions.size and not (
            (xs >= bounds.x1).all()
            and (xs <= bounds.x2).all()
            and (ys >= bounds.y1).all()
            and (ys <= bounds.y2).all()
        ):
            raise ValueError(f"trace file {path} has positions outside its bounds")
        return trace
