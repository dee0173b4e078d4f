"""Bounded FIFO input queue for position updates.

Models the server's message queue from Section 3.4: arrivals beyond the
capacity ``B`` are dropped (this is the uncontrolled "random dropping"
overload behaviour LIRA exists to prevent).  Drop and throughput
counters feed the THROTLOOP utilization measurements.
"""

from __future__ import annotations

from collections import deque

import numpy as np


class ArrayBoundedQueue:
    """A FIFO queue with a hard capacity, holding struct-of-arrays chunks.

    Semantically identical to offering each message of a batch to a
    per-message bounded queue in order: with ``f`` free slots, the first
    ``f`` messages of the batch enqueue and the rest are dropped, and
    the monotonic ``lifetime_*`` counts advance exactly as a per-message
    queue's would.  Messages are columns — ``(times, node_ids,
    positions, velocities)`` — so the server ingest path never
    materializes per-update objects.
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
        # Chunks offered since the last own(): the newest, which may
        # still be a caller's arrays (a batch admitted whole is not copied).
        self._unowned = 0
        # Monotonic counts, never reset: a reader's period is a
        # difference of two readings.
        self.lifetime_enqueued = 0
        self.lifetime_dropped = 0
        self.lifetime_dequeued = 0

    def __len__(self) -> int:
        return self._size

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
                np.asarray(times, dtype=np.float64),
                np.asarray(node_ids, dtype=np.int64),
                np.asarray(positions, dtype=np.float64),
                np.asarray(velocities, dtype=np.float64),
            )
            if fit < n:
                # A slice pins its whole base (for a live service, the
                # frame buffer it arrived in): retain only what was admitted.
                chunk = (chunk[0][:fit].copy(), chunk[1][:fit].copy(),
                         chunk[2][:fit].copy(), chunk[3][:fit].copy())
            self._chunks.append(chunk)
            self._unowned += 1
            self._size += fit
            self.lifetime_enqueued += fit
        self.lifetime_dropped += n - fit
        return fit

    def own(self) -> None:
        """Copy the chunks offered since the last call that still view
        their caller's memory (a batch admitted whole is queued as is),
        before that caller reuses it: a live service's receive buffer."""
        chunks = self._chunks
        for k in range(len(chunks) - min(self._unowned, len(chunks)), len(chunks)):
            chunks[k] = tuple(c if c.base is None else c.copy() for c in chunks[k])  # type: ignore
        self._unowned = 0

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

    def drop_rate(self, mark: tuple[int, int] = (0, 0)) -> float:
        """Fraction of arrivals dropped since ``mark``, an earlier
        ``(lifetime_enqueued, lifetime_dropped)`` reading (default: ever);
        0.0 when nothing arrived."""
        dropped = self.lifetime_dropped - mark[1]
        arrivals = self.lifetime_enqueued - mark[0] + dropped
        if arrivals == 0:
            return 0.0
        return dropped / arrivals
