"""Server-side trajectory history.

The paper's fairness threshold Δ⇔ exists because "mobile CQ systems
supporting historic and ad-hoc queries" need *every* node tracked with
bounded inaccuracy — not just nodes inside current CQ regions.  This
module is that support: an append-only archive of the motion models the
server received, able to reconstruct the believed position of any node
at any past time (the model that was active then, extrapolated).

The reconstruction error at time ``t`` is bounded by the Δ the node was
using around ``t`` — which is exactly what the fairness threshold caps.

Storage is columnar (struct-of-arrays): one global append-only log of
``(time, node_id, position, velocity)`` rows plus per-node counters, so
:meth:`TrajectoryStore.record` is a handful of array writes per batch
instead of a Python loop over senders.  Because every batch is
validated to be in time order *per node*, each node's rows appear in
the log already time-sorted; the per-node view needed by the query
methods is a CSR index (stable argsort by node id + prefix sums of the
report counts) rebuilt lazily on the first query after an append.
"""

from __future__ import annotations

import numpy as np


class TrajectoryStore:
    """Archive of all received motion models, per node.

    ``record`` is called with the same batches the node table ingests;
    ``believed_position`` / ``believed_snapshot`` reconstruct the
    server's view at any past time.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        self.n_nodes = n_nodes
        self._capacity = 1024
        self._times = np.empty(self._capacity, dtype=np.float64)
        self._ids = np.empty(self._capacity, dtype=np.int64)
        self._positions = np.empty((self._capacity, 2), dtype=np.float64)
        self._velocities = np.empty((self._capacity, 2), dtype=np.float64)
        self._size = 0
        self._counts = np.zeros(n_nodes, dtype=np.int64)
        self._last_time = np.full(n_nodes, -np.inf)
        self._first_time = np.full(n_nodes, np.nan)
        # Lazy CSR view of the log grouped by node (row order within a
        # node is report-time order, because appends are).
        self._order: np.ndarray | None = None
        self._indptr: np.ndarray | None = None
        self.total_reports = 0

    def _grow(self, needed: int) -> None:
        capacity = self._capacity
        while capacity < needed:
            capacity *= 2
        for name in ("_times", "_ids", "_positions", "_velocities"):
            old = getattr(self, name)
            new = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            new[: self._size] = old[: self._size]
            setattr(self, name, new)
        self._capacity = capacity

    def record(
        self,
        t: float,
        node_ids: np.ndarray,
        positions: np.ndarray,
        velocities: np.ndarray,
    ) -> None:
        """Archive a batch of reports received at time ``t``.

        The whole batch is validated (ids, shapes, per-node time order)
        before anything is appended; a bad id, a mis-shaped array or a
        late report raises ``ValueError`` and leaves the archive
        unchanged.
        """
        node_ids = np.asarray(node_ids)
        if node_ids.size == 0:
            return
        if node_ids.ndim != 1 or node_ids.dtype.kind not in "iu":
            raise ValueError("node_ids must be a 1-D integer array")
        if node_ids.min() < 0 or node_ids.max() >= self.n_nodes:
            raise ValueError(f"node ids must lie in [0, {self.n_nodes})")
        node_ids = node_ids.astype(np.int64, copy=False)
        shape = (node_ids.size, 2)
        if np.shape(positions) != shape or np.shape(velocities) != shape:
            raise ValueError(f"positions and velocities must have shape {shape}")
        late = t < self._last_time[node_ids]
        if late.any():
            bad = node_ids[int(np.argmax(late))]
            raise ValueError(
                f"reports must arrive in time order "
                f"(got {t} after {float(self._last_time[bad])})"
            )
        end = self._size + node_ids.size
        if end > self._capacity:
            self._grow(end)
        grew = slice(self._size, end)
        self._times[grew] = t
        self._ids[grew] = node_ids
        self._positions[grew] = positions
        self._velocities[grew] = velocities
        self._size = end
        fresh = np.isnan(self._first_time[node_ids])
        if fresh.any():
            self._first_time[node_ids[fresh]] = t
        self._last_time[node_ids] = t
        self._counts += np.bincount(node_ids, minlength=self.n_nodes)
        self.total_reports += int(node_ids.size)
        self._order = None

    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Log rows grouped by node: ``order[indptr[i]:indptr[i+1]]``."""
        if self._order is None:
            self._order = np.argsort(self._ids[: self._size], kind="stable")
            indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
            np.cumsum(self._counts, out=indptr[1:])
            self._indptr = indptr
        assert self._indptr is not None
        return self._order, self._indptr

    def reports_for(self, node_id: int) -> int:
        """Number of archived reports for one node."""
        return int(self._counts[node_id])

    def believed_position(self, node_id: int, t: float) -> tuple[float, float] | None:
        """The server's belief of where ``node_id`` was at time ``t``.

        ``None`` if no model was active yet (before the node's first
        report).
        """
        if self._counts[node_id] == 0:
            return None
        order, indptr = self._csr()
        rows = order[indptr[node_id] : indptr[node_id + 1]]
        idx = int(np.searchsorted(self._times[rows], t, side="right")) - 1
        if idx < 0:
            return None
        row = rows[idx]
        dt = t - self._times[row]
        return (
            float(self._positions[row, 0] + self._velocities[row, 0] * dt),
            float(self._positions[row, 1] + self._velocities[row, 1] * dt),
        )

    def believed_snapshot(self, t: float) -> np.ndarray:
        """Believed positions of all nodes at time ``t``; NaN where unknown.

        One pass over the log: per node, the report active at ``t`` is
        the ``k``-th of its rows where ``k`` counts the node's reports
        with time ``<= t`` (its rows are time-sorted), so the whole
        gather is a masked bincount + one fancy index.
        """
        out = np.full((self.n_nodes, 2), np.nan)
        if self._size == 0:
            return out
        order, indptr = self._csr()
        mask = self._times[: self._size] <= t
        active_count = np.bincount(
            self._ids[: self._size][mask], minlength=self.n_nodes
        )
        have = active_count > 0
        if have.any():
            rows = order[indptr[:-1][have] + active_count[have] - 1]
            dt = (t - self._times[rows])[:, None]
            out[have] = self._positions[rows] + self._velocities[rows] * dt
        return out

    def first_report_time(self, node_id: int) -> float | None:
        if self._counts[node_id] == 0:
            return None
        return float(self._first_time[node_id])
