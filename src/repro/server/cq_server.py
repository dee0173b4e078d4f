"""The mobile CQ server: the first layer of the LIRA architecture.

Ingests position updates through a bounded input queue with a finite
service rate, maintains the believed node positions (a
:class:`~repro.index.NodeTable`) and the statistics grid, and evaluates
the installed continual range queries against its (possibly stale) view.

This is the component whose overload LIRA prevents: when the arrival
rate exceeds the service rate, the queue fills and arrivals are dropped
at random — exactly the Random Drop regime the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.counters import Counters
from repro.geo import Rect
from repro.index import NodeTable
from repro.queries import QueryEvalKernel, RangeQuery
from repro.server.queue import ArrayBoundedQueue

#: Side cell count of the server's cell -> query index.  A rule, not a
#: parameter: evaluation cost is flat across 64-256 cells per side
#: (coarser cells admit more candidate rows, finer ones cost more buckets
#: per query), so one resolution serves every deployment in the repo.
_QUERY_INDEX_CELLS = 128


@dataclass
class LoadMeasurement:
    """Arrival/service accounting over one measurement period.

    ``dropped`` counts queue-overflow drops, ``shed`` counts updates the
    server itself refused at admission (the Random Drop regime's
    server-actuated shedding); both are included in ``arrivals``.
    """

    arrivals: int
    processed: int
    dropped: int
    period: float
    service_rate: float
    shed: int = 0

    @property
    def arrival_rate(self) -> float:
        """λ, updates per second."""
        return self.arrivals / self.period if self.period > 0 else 0.0

    @property
    def utilization(self) -> float:
        """ρ = λ/μ.

        The dataclass is public, so a zero or negative ``service_rate``
        can be constructed directly; a dead server under any load is
        infinitely utilized (and idle at zero load), not a
        ``ZeroDivisionError`` mid-measurement.
        """
        if self.service_rate <= 0:
            return float("inf") if self.arrival_rate > 0 else 0.0
        return self.arrival_rate / self.service_rate


class MobileCQServer:
    """A mobile CQ server with finite processing capacity.

    Args:
        bounds: the monitoring region.
        n_nodes: population size (node ids are ``0..n_nodes-1``).
        queries: installed continual range queries.
        service_rate: μ, updates the server can integrate per second.
        queue_capacity: B, the input-queue size (Section 3.4).

    Queued updates are struct-of-arrays chunks
    (:class:`~repro.server.queue.ArrayBoundedQueue`) applied to the node
    table as array operations; the per-message form
    (``tests/oracles/system.py``) agrees on every admission lottery
    draw, FIFO overflow drop, newest-wins discard and counter.
    """

    def __init__(
        self,
        bounds: Rect,
        n_nodes: int,
        queries: list[RangeQuery],
        service_rate: float,
        queue_capacity: int = 100,
    ) -> None:
        if service_rate <= 0:
            raise ValueError("service_rate must be positive")
        self.bounds = bounds
        self.queries = list(queries)
        self.service_rate = service_rate
        self.queue = ArrayBoundedQueue(queue_capacity)
        self.table = NodeTable(n_nodes)
        # The paper's server keeps a grid index that query evaluation
        # runs through; here it indexes the (fixed) queries by cell.
        self.kernel = QueryEvalKernel(
            self.queries, bounds=bounds, cells_per_side=_QUERY_INDEX_CELLS
        )
        self._service_credit = 0.0
        #: Monotonic fates of arriving reports: shed at admission (Random
        #: Drop), dropped by the full queue, or processed.  A measurement
        #: period is ``since(_mark)``.
        self.counts = Counters("arrivals", "processed", "dropped", "shed")
        self._mark = self.counts.snapshot()
        # A float sum restarted each period (a difference of running
        # float sums would not carry the same bits).
        self._period_time = 0.0

    def receive_reports(
        self,
        t: float,
        node_ids: np.ndarray,
        positions: np.ndarray,
        velocities: np.ndarray,
        times: np.ndarray | None = None,
        admit_fraction: float = 1.0,
        admit_rng: np.random.Generator | None = None,
    ) -> int:
        """Enqueue a batch of arriving reports; returns how many fit.

        Arrivals beyond the queue capacity are dropped (counted in the
        queue's statistics and the current load measurement).

        ``times`` optionally carries each message's original report
        timestamp (a faulty uplink delivers delayed messages ticks after
        they were sent); ``None`` means every report was sampled at
        ``t``.  With ``admit_fraction < 1`` the server sheds arriving
        updates uniformly at random before the queue — the paper's
        Random Drop regime — drawing from ``admit_rng``.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        arrivals = int(node_ids.size)
        positions = np.asarray(positions, dtype=np.float64)
        velocities = np.asarray(velocities, dtype=np.float64)
        if admit_fraction < 1.0:
            if admit_rng is None:
                raise ValueError("admit_fraction < 1 requires admit_rng")
            admitted_mask = admit_rng.random(arrivals) < admit_fraction
            self.counts.shed += arrivals - int(admitted_mask.sum())
            node_ids = node_ids[admitted_mask]
            positions = np.compress(admitted_mask, positions, axis=0)
            velocities = np.compress(admitted_mask, velocities, axis=0)
            if times is not None:
                times = np.asarray(times, dtype=np.float64)[admitted_mask]
        if times is None:
            times = np.full(node_ids.size, t, dtype=np.float64)
        admitted = self.queue.offer_arrays(times, node_ids, positions, velocities)
        self.counts.arrivals += arrivals
        self.counts.dropped += node_ids.size - admitted
        return admitted

    def process(self, dt: float, rate_factor: float = 1.0) -> int:
        """Serve the queue for ``dt`` seconds of processing capacity.

        Fractional capacity carries over between calls so that slow
        service rates are modeled exactly.  ``rate_factor`` scales the
        capacity for this call only — the hook through which transient
        server slowdowns are injected; the load measurement keeps the
        nominal μ, so a dip shows up as apparent overload, exactly as a
        real controller would observe it.
        """
        if dt < 0:
            raise ValueError("dt must be non-negative")
        if rate_factor < 0:
            raise ValueError("rate_factor must be non-negative")
        self._service_credit += self.service_rate * rate_factor * dt
        times, ids, pos, vel = self.queue.poll_arrays(int(self._service_credit))
        count = int(ids.size)
        self._service_credit -= count
        if count:
            # Ascending distinct report times: preserves staleness and
            # lets the table's newest-wins compare discard out-of-order
            # deliveries.  A poll at one time is that one group as polled.
            if (times == times[0]).all():
                self.table.ingest(float(times[0]), ids, pos, vel)
            else:
                for report_t in np.unique(times):
                    mask = times == report_t
                    self.table.ingest(
                        float(report_t), ids[mask],
                        np.compress(mask, pos, axis=0), np.compress(mask, vel, axis=0),
                    )
        self.counts.processed += count
        self._period_time += dt
        return count

    def clamp_service_credit(self, cap: float = 1.0) -> None:
        """Forget banked service capacity beyond ``cap`` updates.

        The simulated loop calls :meth:`process` back-to-back with a
        never-idle queue, where fractional-credit carryover models a slow
        μ exactly.  A live pump also calls :meth:`process` while the
        queue is *empty*; letting credit accumulate there would allow a
        later burst to be served in zero time — a real server cannot
        bank idle capacity.  Pumps call this after serving an empty
        queue to keep only the sub-update fractional remainder.
        """
        if cap < 0:
            raise ValueError("cap must be non-negative")
        self._service_credit = min(self._service_credit, cap)

    def evaluate_queries(self, t: float) -> list[np.ndarray]:
        """Result sets from the server's *believed* positions at time ``t``.

        One ascending array of node ids per query.  Believed positions
        go through the cell -> query index, so only rows sitting in a
        query-bearing cell are compared.  Never-seen nodes predict to NaN
        and NaN is inside no rectangle — not even an open-ended one
        (max = inf) — so results only ever name nodes the server has a
        position for.
        """
        return self.kernel.evaluate(self.table.predict(t))

    def take_load_measurement(self) -> LoadMeasurement:
        """Close the current measurement period and return its statistics.

        Feed :attr:`LoadMeasurement.arrival_rate` and ``service_rate``
        to THROTLOOP for adaptive throttle-fraction control.
        """
        measurement = LoadMeasurement(
            period=self._period_time,
            service_rate=self.service_rate,
            **self.counts.since(self._mark),
        )
        self._mark = self.counts.snapshot()
        self._period_time = 0.0
        return measurement
