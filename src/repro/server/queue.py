"""Bounded FIFO input queue for position updates.

Models the server's message queue from Section 3.4: arrivals beyond the
capacity ``B`` are dropped (this is the uncontrolled "random dropping"
overload behaviour LIRA exists to prevent).  Drop and throughput
counters feed the THROTLOOP utilization measurements.
"""

from __future__ import annotations

from collections import deque

import numpy as np


def _drop_fraction(enqueued: int, dropped: int) -> float:
    """``dropped / (enqueued + dropped)``, 0.0 when nothing arrived."""
    arrivals = enqueued + dropped
    if arrivals == 0:
        return 0.0
    return dropped / arrivals


class ArrayBoundedQueue:
    """A FIFO queue with a hard capacity, holding struct-of-arrays chunks.

    Semantically identical to offering each message of a batch to a
    per-message bounded queue in order: with ``f`` free slots, the first
    ``f`` messages of the batch enqueue and the rest are dropped, and
    every counter (``total_*`` and the monotonic ``lifetime_*`` family)
    advances exactly as a per-message queue's would.  Messages are
    columns — ``(times, node_ids, positions, velocities)`` — so the
    server ingest path never materializes per-update objects.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: FIFO of (times, ids, positions, velocities) array chunks.
        self._chunks: deque[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = (
            deque()
        )
        self._size = 0
        self.total_enqueued = 0
        self.total_dropped = 0
        self.total_dequeued = 0
        # Monotonic lifetime counters: never cleared by reset_counters().
        # Period accounting (e.g. the server's load measurements) derives
        # from these, so a mid-period reset of the resettable counters
        # cannot make the two views of "how many drops" disagree.
        self.lifetime_enqueued = 0
        self.lifetime_dropped = 0
        self.lifetime_dequeued = 0

    def __len__(self) -> int:
        return self._size

    @property
    def is_full(self) -> bool:
        return self._size >= self.capacity

    def offer_arrays(
        self,
        times: np.ndarray,
        node_ids: np.ndarray,
        positions: np.ndarray,
        velocities: np.ndarray,
    ) -> int:
        """Enqueue a batch FIFO-style; overflow beyond capacity drops.

        Returns how many messages fit (the batch's prefix, exactly as
        per-message ``offer`` calls would admit them).
        """
        n = int(node_ids.size)
        if n == 0:
            return 0
        fit = min(n, self.capacity - self._size)
        if fit > 0:
            chunk = (
                np.asarray(times, dtype=np.float64)[:fit],
                np.asarray(node_ids, dtype=np.int64)[:fit],
                np.asarray(positions, dtype=np.float64)[:fit],
                np.asarray(velocities, dtype=np.float64)[:fit],
            )
            if fit < n:
                # A slice pins its whole base (for a live service, the
                # frame buffer it arrived in): retain only what was admitted.
                chunk = (chunk[0].copy(), chunk[1].copy(), chunk[2].copy(), chunk[3].copy())
            self._chunks.append(chunk)
            self._size += fit
            self.total_enqueued += fit
            self.lifetime_enqueued += fit
        dropped = n - fit
        if dropped:
            self.total_dropped += dropped
            self.lifetime_dropped += dropped
        return fit

    def poll_arrays(
        self, max_items: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Dequeue up to ``max_items`` messages in FIFO order, as arrays."""
        if max_items < 0:
            raise ValueError("max_items must be non-negative")
        taken: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        remaining = max_items
        while remaining > 0 and self._chunks:
            times, ids, pos, vel = self._chunks[0]
            if ids.size <= remaining:
                taken.append(self._chunks.popleft())
                remaining -= ids.size
            else:
                taken.append(
                    (times[:remaining], ids[:remaining], pos[:remaining], vel[:remaining])
                )
                self._chunks[0] = (
                    times[remaining:],
                    ids[remaining:],
                    pos[remaining:],
                    vel[remaining:],
                )
                remaining = 0
        count = max_items - remaining
        self._size -= count
        self.total_dequeued += count
        self.lifetime_dequeued += count
        if not taken:
            return (
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.int64),
                np.empty((0, 2), dtype=np.float64),
                np.empty((0, 2), dtype=np.float64),
            )
        if len(taken) == 1:
            return taken[0]
        return (
            np.concatenate([c[0] for c in taken]),
            np.concatenate([c[1] for c in taken]),
            np.concatenate([c[2] for c in taken]),
            np.concatenate([c[3] for c in taken]),
        )

    def drop_rate(self) -> float:
        """Fraction of all arrivals dropped so far.

        Derived from the monotonic ``lifetime_*`` counters, so a
        :meth:`reset_counters` call mid-run cannot silently turn this
        into a per-period rate.  Use :meth:`period_drop_rate` for the
        drop fraction since the last reset.
        """
        return _drop_fraction(self.lifetime_enqueued, self.lifetime_dropped)

    def period_drop_rate(self) -> float:
        """Fraction of arrivals dropped since the last
        :meth:`reset_counters` (the resettable-counter view)."""
        return _drop_fraction(self.total_enqueued, self.total_dropped)

    def reset_counters(self) -> None:
        """Zero the resettable counters (queue contents and the
        monotonic ``lifetime_*`` counters are kept)."""
        self.total_enqueued = 0
        self.total_dropped = 0
        self.total_dequeued = 0
