"""Server-side view of mobile-node positions.

The node table stores, per node, the last *received* linear motion model
and answers "where does the server believe node ``i`` is at time ``t``"
by dead-reckoning extrapolation.  This is the state that query results
are computed from — and the state that goes stale when updates are shed
or dropped.
"""

from __future__ import annotations

import numpy as np


class NodeTable:
    """Vectorized store of last-received motion models for ``n`` nodes."""

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        self._allocate(n_nodes)

    def _allocate(self, n_rows: int) -> None:
        self._pos = np.zeros((n_rows, 2), dtype=np.float64)
        self._vel = np.zeros((n_rows, 2), dtype=np.float64)
        self._time = np.zeros(n_rows, dtype=np.float64)
        self._known = np.zeros(n_rows, dtype=bool)
        self.updates_applied = 0
        self.updates_discarded = 0
        #: Always 0: a dense table owns every id (the compact table's
        #: counter, present here so callers can sum over either kind).
        self.updates_orphaned = 0

    @property
    def n_nodes(self) -> int:
        return int(self._known.size)

    def ingest(
        self,
        t: float,
        node_ids: np.ndarray,
        positions: np.ndarray,
        velocities: np.ndarray,
    ) -> None:
        """Apply a batch of received reports at time ``t``.

        ``node_ids`` indexes into the table; ``positions`` and
        ``velocities`` are the reported model parameters, one row per id.
        A report older than the node's stored model (a delayed message
        delivered out of order) is discarded — newest model wins.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if node_ids.size == 0:
            return
        stale = self._known[node_ids] & (self._time[node_ids] > t)
        if stale.any():
            self.updates_discarded += int(stale.sum())
            fresh = ~stale
            node_ids = node_ids[fresh]
            positions = np.asarray(positions)[fresh]
            velocities = np.asarray(velocities)[fresh]
            if node_ids.size == 0:
                return
        self._pos[node_ids] = positions
        self._vel[node_ids] = velocities
        self._time[node_ids] = t
        self._known[node_ids] = True
        self.updates_applied += int(node_ids.size)

    def predict(self, t: float) -> np.ndarray:
        """Believed positions of all nodes at time ``t``, shape ``(n, 2)``.

        Nodes that have never reported predict to ``NaN`` so that
        accuracy metrics can exclude them explicitly rather than
        silently treating them as being at the origin.
        """
        predicted = self._pos + self._vel * (t - self._time)[:, None]
        predicted[~self._known] = np.nan
        return predicted

    @property
    def known_mask(self) -> np.ndarray:
        """Boolean mask of nodes with at least one received report."""
        return self._known.copy()

    @property
    def velocities(self) -> np.ndarray:
        """Stored model velocities, shape ``(n, 2)`` (zeros when unknown).

        The believed-state view a server-side adaptation needs alongside
        :meth:`predict`: region statistics weight cells by node speed,
        and the only speeds the server legitimately knows are the ones
        the nodes last reported.
        """
        return self._vel.copy()

    @property
    def last_update_times(self) -> np.ndarray:
        """Report time of each node's stored motion model."""
        return self._time.copy()


class CompactNodeTable(NodeTable):
    """A node table over an explicit (sorted) subset of global node ids.

    A partitioned deployment gives each shard a table holding only the
    nodes it currently owns: rows are positionally aligned with
    :attr:`ids` (ascending global node ids) and callers keep addressing
    nodes by *global* id — :meth:`ingest` translates via
    ``searchsorted``.  Updates for ids not in the table (a node that
    migrated away while its report sat in the input queue) are dropped
    and counted in :attr:`updates_orphaned`; a full-population table
    (``ids = arange(n)``) behaves bit-identically to :class:`NodeTable`.
    An empty shard's zero-row table is legal.

    Row surgery (:meth:`extract_rows` / :meth:`insert_rows`) moves nodes
    between shards; the table's id array is the shard's owned-node set.
    """

    def __init__(self, ids: np.ndarray) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError("ids must be one-dimensional")
        if ids.size and np.any(np.diff(ids) <= 0):
            raise ValueError("ids must be strictly increasing")
        self.ids = ids.copy()
        self._allocate(ids.size)

    def rows_of(self, node_ids: np.ndarray) -> np.ndarray:
        """Row index per global id; every id must be present."""
        rows = np.searchsorted(self.ids, node_ids)
        if np.any(rows >= self.ids.size) or np.any(
            self.ids[np.minimum(rows, self.ids.size - 1)] != node_ids
        ):
            raise KeyError("node id not owned by this table")
        return rows

    def ingest(
        self,
        t: float,
        node_ids: np.ndarray,
        positions: np.ndarray,
        velocities: np.ndarray,
    ) -> None:
        """Apply a batch of received reports at time ``t`` (global ids).

        Reports addressed to nodes this table does not own are dropped
        and counted as orphans; the rest go through
        :meth:`NodeTable.ingest` by row.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if self.ids.size == 0:
            self.updates_orphaned += int(node_ids.size)
            return
        rows = np.searchsorted(self.ids, node_ids)
        owned = (rows < self.ids.size) & (
            self.ids[np.minimum(rows, self.ids.size - 1)] == node_ids
        )
        if not owned.all():
            self.updates_orphaned += int(np.count_nonzero(~owned))
            rows = rows[owned]
            positions = np.asarray(positions)[owned]
            velocities = np.asarray(velocities)[owned]
        super().ingest(t, rows, positions, velocities)

    # ------------------------------------------------------------------
    # Row surgery (cross-shard node handoff)
    # ------------------------------------------------------------------

    def extract_rows(self, rows: np.ndarray) -> dict[str, np.ndarray]:
        """Remove the given row indices and return their model state."""
        state = {
            "pos": self._pos[rows].copy(),
            "vel": self._vel[rows].copy(),
            "time": self._time[rows].copy(),
            "known": self._known[rows].copy(),
        }
        self.ids = np.delete(self.ids, rows)
        self._pos = np.delete(self._pos, rows, axis=0)
        self._vel = np.delete(self._vel, rows, axis=0)
        self._time = np.delete(self._time, rows)
        self._known = np.delete(self._known, rows)
        return state

    def insert_rows(
        self, at: np.ndarray, node_ids: np.ndarray, state: dict[str, np.ndarray]
    ) -> None:
        """Insert rows for ``node_ids`` before indices ``at`` (sorted merge)."""
        self.ids = np.insert(self.ids, at, node_ids)
        self._pos = np.insert(self._pos, at, state["pos"], axis=0)
        self._vel = np.insert(self._vel, at, state["vel"], axis=0)
        self._time = np.insert(self._time, at, state["time"])
        self._known = np.insert(self._known, at, state["known"])
