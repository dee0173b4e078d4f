"""Server-side view of mobile-node positions.

The node table stores, per node, the last *received* linear motion model
and answers "where does the server believe node ``i`` is at time ``t``"
by dead-reckoning extrapolation.  This is the state that query results
are computed from — and the state that goes stale when updates are shed
or dropped.
"""

from __future__ import annotations

import copy

import numpy as np

#: One ``(x, y)`` float64 pair as a single 16-byte element: numpy moves a
#: whole row per index instead of looping over a 2-wide inner axis.
_ROW = np.dtype((np.void, 16))


def _rows(xy: np.ndarray) -> np.ndarray:
    """``(n, 2)`` coordinates as ``n`` row records, bytes as float64 holds them."""
    xy = np.ascontiguousarray(xy, dtype=np.float64)
    return xy.view(_ROW).reshape(xy.shape[:-1])


class NodeTable:
    """Vectorized store of last-received motion models for ``n`` nodes."""

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        self._pos = np.zeros((n_nodes, 2), dtype=np.float64)
        self._vel = np.zeros((n_nodes, 2), dtype=np.float64)
        self._pos_rows, self._vel_rows = _rows(self._pos), _rows(self._vel)
        self._time = np.zeros(n_nodes, dtype=np.float64)
        self._known = np.zeros(n_nodes, dtype=bool)
        #: Newest report time applied (NaN never counts): no stored model
        #: is newer, so a batch at least this new skips the stale check.
        #: One cell, so every shard view reads what any of them applied.
        self._newest = np.full(1, -np.inf)
        self.updates_applied = 0
        self.updates_discarded = 0
        #: Reports for nodes another shard owned at apply time; always 0
        #: outside a :meth:`shard_view`.
        self.updates_orphaned = 0
        self._owner: np.ndarray | None = None
        self._shard = 0

    def __getstate__(self) -> dict:
        # The row views alias _pos and _vel: a copy or a pickle rebuilds
        # them over its own arrays, or its writes would miss them.
        state = dict(self.__dict__)
        del state["_pos_rows"], state["_vel_rows"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._pos_rows, self._vel_rows = _rows(self._pos), _rows(self._vel)

    def shard_view(self, owner: np.ndarray, shard: int) -> NodeTable:
        """Shard ``shard``'s handle on this table in a partitioned deployment.

        The view shares this table's model arrays, so every view reads
        what any of them applied, and keeps its own counters.  It applies
        a report only if ``owner[id] == shard`` at apply time; ``owner``
        is held, not copied, so a coordinator hands a node to another
        shard by writing its entry.  Any other report (its node handed
        off while the report sat in a queue) is dropped and counted in
        :attr:`updates_orphaned`.
        """
        view = copy.copy(self)
        view._owner, view._shard = owner, shard
        view.updates_applied = view.updates_discarded = view.updates_orphaned = 0
        return view

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
        A shard view first drops reports for nodes it does not own
        (orphans); a report older than the node's stored model (a delayed
        message delivered out of order) is then discarded — newest model
        wins, checked only for a batch older than any applied before it.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if node_ids.size == 0:
            return
        pos, vel = _rows(positions), _rows(velocities)
        if self._owner is not None:
            owned = self._owner[node_ids] == self._shard
            if not owned.all():
                self.updates_orphaned += int(node_ids.size - np.count_nonzero(owned))
                node_ids = node_ids[owned]
                if node_ids.size == 0:
                    return
                pos, vel = pos[owned], vel[owned]
        if t < self._newest[0]:
            stale = self._known[node_ids] & (self._time[node_ids] > t)
            if stale.any():
                self.updates_discarded += int(stale.sum())
                fresh = ~stale
                node_ids = node_ids[fresh]
                if node_ids.size == 0:
                    return
                pos, vel = pos[fresh], vel[fresh]
        elif t > self._newest[0]:
            self._newest[0] = t
        self._pos_rows[node_ids] = pos
        self._vel_rows[node_ids] = vel
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

    # reprolint: disable=REP015 - test seam: the index and fault suites
    # check each stored model's report time through it.
    @property
    def last_update_times(self) -> np.ndarray:
        """Report time of each node's stored motion model."""
        return self._time.copy()
