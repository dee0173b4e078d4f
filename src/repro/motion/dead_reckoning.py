"""Dead-reckoning update generation for the whole population.

:class:`DeadReckoningFleet` keeps every node's last-sent model in numpy
arrays: the simulator observes thousands of nodes per tick, which in
Python objects would dominate runtime.  The one-node form of the same
protocol is :class:`repro.motion.models.ModelDrivenTracker` with the
linear model.

A node reports when the deviation between its last-sent linear model's
prediction and its true position exceeds its inaccuracy threshold Δ.
The threshold is *per node* — LIRA sets it to the update throttler of
the node's current shedding region.
"""

from __future__ import annotations

import numpy as np

#: Nodes per block of :meth:`DeadReckoningFleet.deviation`: a block's
#: temporaries (768 KiB) fit in one core's L2.
DEVIATION_BLOCK = 32_768


class DeadReckoningFleet:
    """Vectorized node-side dead reckoning for ``n`` nodes.

    State is the last *sent* model per node (position, velocity, time),
    columnar: x and y are contiguous rows.  Per-node thresholds are set
    with :meth:`set_thresholds` — this is the hook through which a
    shedding policy actuates load reduction at the sources.
    """

    def __init__(self, n_nodes: int) -> None:
        # Zero is allowed: an empty population ticks through the same
        # code path.
        if n_nodes < 0:
            raise ValueError("n_nodes must be non-negative")
        self.n_nodes = n_nodes
        self.thresholds = np.zeros(n_nodes, dtype=np.float64)
        self._sent_pos = np.zeros((2, n_nodes), dtype=np.float64)
        self._sent_vel = np.zeros((2, n_nodes), dtype=np.float64)
        self._sent_time = np.zeros(n_nodes, dtype=np.float64)
        self._has_model = np.zeros(n_nodes, dtype=bool)
        self.total_reports = 0

    def set_thresholds(self, thresholds: np.ndarray | float) -> None:
        """Install per-node inaccuracy thresholds (broadcastable scalar ok)."""
        values = np.broadcast_to(np.asarray(thresholds, dtype=np.float64), (self.n_nodes,))
        if not np.all(values >= 0):  # rejects NaN too, which would never report again
            raise ValueError("thresholds must be non-negative")
        self.thresholds = values.copy()

    def observe(
        self,
        t: float,
        positions: np.ndarray,
        velocities: np.ndarray,
        deviation: np.ndarray | None = None,
    ) -> np.ndarray:
        """Process one tick of samples; return ids of nodes that report.

        ``positions`` and ``velocities`` have shape ``(n, 2)``.  Nodes
        without a model yet always report.  Reporting nodes' stored
        models are replaced with the new samples.  ``deviation`` is
        :meth:`deviation` at ``(t, positions)`` when the caller already
        has it (computed since the last ``observe``).
        """
        positions = np.asarray(positions, dtype=np.float64)
        velocities = np.asarray(velocities, dtype=np.float64)
        if positions.shape != (self.n_nodes, 2) or velocities.shape != (self.n_nodes, 2):
            raise ValueError("positions/velocities must have shape (n_nodes, 2)")
        if deviation is None:
            deviation = self._deviation(t, positions)
        elif deviation.shape != (self.n_nodes,):
            raise ValueError("deviation must have shape (n_nodes,)")
        senders = np.flatnonzero(~self._has_model | (deviation > self.thresholds))
        if senders.size:
            for axis in (0, 1):
                self._sent_pos[axis][senders] = positions[:, axis][senders]
                self._sent_vel[axis][senders] = velocities[:, axis][senders]
            self._sent_time[senders] = t
            self._has_model[senders] = True
            self.total_reports += int(senders.size)
        return senders

    def deviation(self, t: float, positions: np.ndarray) -> np.ndarray:
        """|sent_pos + sent_vel·dt - position| per node.

        Reads the last-sent models and ``positions`` and writes neither,
        so it may run while another thread computes the thresholds.
        """
        positions = np.asarray(positions, dtype=np.float64)
        if positions.shape != (self.n_nodes, 2):
            raise ValueError("positions must have shape (n_nodes, 2)")
        return self._deviation(t, positions)

    def _deviation(self, t: float, positions: np.ndarray) -> np.ndarray:
        """:meth:`deviation` of checked ``positions``.  Both axes at once
        over the columnar state, in blocks of :data:`DEVIATION_BLOCK`
        nodes so the temporaries stay in cache: per element the
        operations (hence the bits) of the broadcast form and
        ``np.linalg.norm(axis=1)``."""
        out = np.empty(self.n_nodes, dtype=np.float64)
        for lo in range(0, self.n_nodes, DEVIATION_BLOCK):
            block = slice(lo, lo + DEVIATION_BLOCK)
            d = self._sent_vel[:, block] * (t - self._sent_time[block])
            d += self._sent_pos[:, block]
            d -= positions[block].T
            d *= d
            np.add(d[0], d[1], out=out[block])
            np.sqrt(out[block], out=out[block])
        return out

    # reprolint: disable=REP015 - test seam: the motion suite reads the
    # last-sent models to prove observe/deviation purity.
    def node_models(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Snapshot of (positions, velocities, times) of last-sent models."""
        return self._sent_pos.T.copy(), self._sent_vel.T.copy(), self._sent_time.copy()
