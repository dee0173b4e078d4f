"""Historic / ad-hoc snapshot query support (the fairness threshold's client)."""

from repro.history.queries import (
    SnapshotQuery,
    snapshot_position_error,
)
from repro.history.store import TrajectoryStore

__all__ = [
    "SnapshotQuery",
    "TrajectoryStore",
    "snapshot_position_error",
]
