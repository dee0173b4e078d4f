"""The per-node, per-message systems loop: the oracle for ``LiraSystem``.

Everything the runtime keeps as arrays exists here as objects: one
:class:`MobileNode` per node scanning the station list and probing the
paper's 5×5 grid index (:class:`ObjectNodeEngine`), one
:class:`UpdateMessage` per report in a per-message :class:`BoundedQueue`
(:class:`MessageCQServer`), plans from the scalar kernels
(:func:`tests.oracles.gridreduce.reference_plan`), and station coverage
one disk and rectangle at a time (:func:`disk_meets_rect`).
:class:`ReferenceLiraSystem` wires them into the same bootstrap / adapt
/ tick / stats loop; at matched seeds ``LiraSystem(n_shards=1)`` must
agree with it bit for bit — stats, plans, thresholds, believed
positions, query results, history — under every fault regime.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core import AnalyticReduction, LiraConfig, LiraLoadShedder, StatisticsGrid
from repro.core.greedy import RegionStats
from repro.core.plan import SheddingPlan, SheddingRegion, clamp_thresholds
from repro.core.reduction import ReductionFunction
from repro.faults import FaultInjector, FaultSpec
from repro.geo import Point, Rect
from repro.history import TrajectoryStore
from repro.motion import DeadReckoningFleet
from repro.queries import RangeQuery
from repro.server.base_station import place_uniform_stations
from repro.server.cq_server import MobileCQServer
from repro.server.protocol import BaseStationNetwork, RegionSubset
from repro.server.system import SystemStats
from repro.trace import Trace

from tests.oracles.gridreduce import reference_plan

#: Side cell count of the node-side lookup index ("a tiny 5x5 grid
#: index on the mobile node side", Section 4.3.2).
NODE_INDEX_SIDE = 5


def disk_meets_rect(rect: Rect, center: Point, radius: float) -> bool:
    """One entry of ``coverage_mask``: the disk center clamped into the
    rectangle lies within ``radius`` of it."""
    nearest = Point(
        min(max(center.x, rect.x1), rect.x2), min(max(center.y, rect.y1), rect.y2)
    )
    return nearest.distance_to(center) <= radius


def closed_rect(rect: Rect, space: Rect | None) -> Rect:
    """``rect`` with an upper edge that is the monitoring space's (to
    rounding) moved one ulp past it: the space is closed, so the half-open
    :meth:`Rect.contains_xy` gives ``x2``/``y2`` themselves to the last
    row and column of regions.  ``space=None`` leaves ``rect`` as it is."""
    if space is None:
        return rect
    tol = 1e-9 * max(1.0, abs(space.x1), abs(space.y1), abs(space.x2), abs(space.y2))

    def edge(value: float, top: float) -> float:
        return math.nextafter(top, math.inf) if abs(value - top) <= tol else value

    return Rect(rect.x1, rect.y1, edge(rect.x2, space.x2), edge(rect.y2, space.y2))


class _SubsetIndex:
    """The mobile node's 5×5 grid index over its stored region subset.

    Buckets region indices by the grid cells (over the subset's bounding
    box) they intersect; a lookup scans only one cell's candidates.
    """

    def __init__(self, regions: tuple[SheddingRegion, ...], space: Rect | None) -> None:
        self.regions = regions
        self.rects = [closed_rect(r.rect, space) for r in regions]
        xs1 = min(r.x1 for r in self.rects)
        ys1 = min(r.y1 for r in self.rects)
        xs2 = max(r.x2 for r in self.rects)
        ys2 = max(r.y2 for r in self.rects)
        self.bbox = Rect(xs1, ys1, xs2, ys2)
        self._cell_w = max(self.bbox.width / NODE_INDEX_SIDE, 1e-9)
        self._cell_h = max(self.bbox.height / NODE_INDEX_SIDE, 1e-9)
        self._buckets: list[list[int]] = [
            [] for _ in range(NODE_INDEX_SIDE * NODE_INDEX_SIDE)
        ]
        for idx, rect in enumerate(self.rects):
            # ``_cell_of`` is monotone, so every point of the half-open
            # rect lands in a bucket of this range — the cell of ``x2``
            # itself included: one ulp below an edge that sits on a bucket
            # line, the quotient rounds up to the line.
            i_lo, j_lo = self._cell_of(rect.x1, rect.y1)
            i_hi, j_hi = self._cell_of(rect.x2, rect.y2)
            for i in range(i_lo, i_hi + 1):
                for j in range(j_lo, j_hi + 1):
                    self._buckets[i * NODE_INDEX_SIDE + j].append(idx)

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        i = int((x - self.bbox.x1) / self._cell_w)
        j = int((y - self.bbox.y1) / self._cell_h)
        return (
            min(max(i, 0), NODE_INDEX_SIDE - 1),
            min(max(j, 0), NODE_INDEX_SIDE - 1),
        )

    def region_at(self, x: float, y: float) -> SheddingRegion | None:
        i, j = self._cell_of(x, y)
        for idx in self._buckets[i * NODE_INDEX_SIDE + j]:
            if self.rects[idx].contains_xy(x, y):
                return self.regions[idx]
        return None


@dataclass
class MobileNode:
    """The node-side endpoint of the protocol.

    Holds the current station's region subset and answers "what Δ do I
    use here?" locally.  ``handoffs`` and ``subset_installs`` count the
    events the paper's messaging-cost analysis cares about.  ``space``
    is the monitoring space, whose upper edges the last regions own
    (:func:`closed_rect`); ``None`` keeps every region half-open.
    """

    node_id: int
    space: Rect | None = None
    station_id: int | None = None
    subset: RegionSubset | None = None
    handoffs: int = 0
    subset_installs: int = 0
    _index: _SubsetIndex | None = field(default=None, repr=False)

    def observe_position(self, x: float, y: float, network: BaseStationNetwork) -> None:
        """Attach to the serving station, downloading its subset on
        hand-off or when the broadcast version advanced.

        A node stores only its *current* station's subset.  Handing off
        to a station that has no subset (its broadcast was lost on a
        faulty downlink) therefore clears the node's stored regions —
        the old station's regions do not apply here, so every threshold
        lookup falls back to the conservative default Δ until the next
        broadcast arrives.
        """
        station = network.station_for(x, y)
        subset = network.subset_or_none(station.station_id)
        if station.station_id != self.station_id:
            if self.station_id is not None:
                self.handoffs += 1
            self.station_id = station.station_id
            if subset is None:
                self._clear()
            else:
                self._install(subset)
        elif subset is not None and (
            self.subset is None or subset.version != self.subset.version
        ):
            self._install(subset)

    def _install(self, subset: RegionSubset) -> None:
        self.subset = subset
        self._index = _SubsetIndex(subset.regions, self.space) if subset.regions else None
        self.subset_installs += 1

    def _clear(self) -> None:
        self.subset = None
        self._index = None

    def current_threshold(self, x: float, y: float, default: float) -> float:
        """The update throttler at the node's position, decided locally.

        Falls back to ``default`` (a conservative Δ⊢) when the position
        is outside every stored region — e.g. at the very edge of the
        coverage area before the next hand-off fires.
        """
        if self._index is None:
            return default
        region = self._index.region_at(x, y)
        return region.delta if region is not None else default

    @property
    def stored_region_count(self) -> int:
        """How many shedding regions this node currently stores."""
        return len(self.subset.regions) if self.subset else 0


class ObjectNodeEngine:
    """The reference node-side path: one :class:`MobileNode` per node,
    with the engine interface of ``VectorNodeEngine``."""

    def __init__(
        self, n_nodes: int, network: BaseStationNetwork, space: Rect | None = None
    ) -> None:
        self.n_nodes = n_nodes
        self.network = network
        self.nodes = [MobileNode(node_id=i, space=space) for i in range(n_nodes)]
        self.total_handoffs = 0

    def compute_thresholds(
        self,
        positions: np.ndarray,
        active: np.ndarray | None,
        default: float,
    ) -> np.ndarray:
        """Per-node Δ for one tick; inactive nodes get ``inf``."""
        thresholds = np.empty(self.n_nodes, dtype=np.float64)
        for i, node in enumerate(self.nodes):
            if active is not None and not active[i]:
                # Departed node: samples nothing, sends nothing.
                thresholds[i] = np.inf
                continue
            x, y = float(positions[i, 0]), float(positions[i, 1])
            previous_station = node.station_id
            node.observe_position(x, y, self.network)
            if previous_station is not None and node.station_id != previous_station:
                self.total_handoffs += 1
            thresholds[i] = node.current_threshold(x, y, default=default)
        return thresholds

    def stored_region_counts(self) -> np.ndarray:
        """How many shedding regions each node currently stores."""
        return np.array(
            [node.stored_region_count for node in self.nodes], dtype=np.int64
        )

    def handoff_counts(self) -> np.ndarray:
        """Per-node hand-off counters (parity introspection)."""
        return np.array([node.handoffs for node in self.nodes], dtype=np.int64)

    def install_counts(self) -> np.ndarray:
        """Per-node subset-install counters (parity introspection)."""
        return np.array(
            [node.subset_installs for node in self.nodes], dtype=np.int64
        )

    def station_slots(self) -> np.ndarray:
        """Current station id per node (-1 before first attachment)."""
        return np.array(
            [
                -1 if node.station_id is None else node.station_id
                for node in self.nodes
            ],
            dtype=np.int64,
        )


def _drop_fraction(enqueued: int, dropped: int) -> float:
    """``dropped / (enqueued + dropped)``, 0.0 when nothing arrived."""
    arrivals = enqueued + dropped
    if arrivals == 0:
        return 0.0
    return dropped / arrivals


class BoundedQueue:
    """A FIFO queue with a hard capacity and drop accounting."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: deque[Any] = deque()
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
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    def offer(self, item: Any) -> bool:
        """Enqueue if there is room; returns False (and counts a drop) if full."""
        if self.is_full:
            self.total_dropped += 1
            self.lifetime_dropped += 1
            return False
        self._items.append(item)
        self.total_enqueued += 1
        self.lifetime_enqueued += 1
        return True

    def poll(self) -> Any | None:
        """Dequeue the oldest item, or None when empty."""
        if not self._items:
            return None
        self.total_dequeued += 1
        self.lifetime_dequeued += 1
        return self._items.popleft()

    def poll_batch(self, max_items: int) -> list[Any]:
        """Dequeue up to ``max_items`` items in FIFO order."""
        if max_items < 0:
            raise ValueError("max_items must be non-negative")
        batch = []
        while self._items and len(batch) < max_items:
            batch.append(self._items.popleft())
        self.total_dequeued += len(batch)
        self.lifetime_dequeued += len(batch)
        return batch

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


@dataclass(frozen=True, slots=True)
class UpdateMessage:
    """One position update in flight: the node's new motion model."""

    time: float
    node_id: int
    x: float
    y: float
    vx: float
    vy: float


class MessageCQServer(MobileCQServer):
    """The CQ server ingesting one :class:`UpdateMessage` at a time."""

    def __init__(self, *args: Any, queue_capacity: int = 100, **kwargs: Any) -> None:
        super().__init__(*args, queue_capacity=queue_capacity, **kwargs)
        self.queue = BoundedQueue(queue_capacity)  # type: ignore[assignment]

    def receive_reports(
        self, t, node_ids, positions, velocities,
        times=None, admit_fraction=1.0, admit_rng=None,
    ) -> int:
        node_ids = np.asarray(node_ids, dtype=np.int64)
        admitted_mask = None
        if admit_fraction < 1.0:
            admitted_mask = admit_rng.random(node_ids.size) < admit_fraction
        admitted = 0
        for k, node_id in enumerate(node_ids):
            if admitted_mask is not None and not admitted_mask[k]:
                self.counts.shed += 1
                continue
            message = UpdateMessage(
                time=float(times[k]) if times is not None else t,
                node_id=int(node_id),
                x=float(positions[k, 0]),
                y=float(positions[k, 1]),
                vx=float(velocities[k, 0]),
                vy=float(velocities[k, 1]),
            )
            if self.queue.offer(message):
                admitted += 1
            else:
                self.counts.dropped += 1
        self.counts.arrivals += len(node_ids)
        return admitted

    def process(self, dt: float, rate_factor: float = 1.0) -> int:
        self._service_credit += self.service_rate * rate_factor * dt
        batch = self.queue.poll_batch(int(self._service_credit))
        self._service_credit -= len(batch)
        if batch:
            ids = np.array([m.node_id for m in batch], dtype=np.int64)
            pos = np.array([[m.x, m.y] for m in batch], dtype=np.float64)
            vel = np.array([[m.vx, m.vy] for m in batch], dtype=np.float64)
            times = [m.time for m in batch]
            # Ingest per distinct report time so staleness is preserved.
            for t in sorted(set(times)):
                mask = np.array([mt == t for mt in times])
                self.table.ingest(t, ids[mask], pos[mask], vel[mask])
        self.counts.processed += len(batch)
        self._period_time += dt
        return len(batch)


class ReferenceLiraSystem:
    """``LiraSystem(n_shards=1)`` one node and one message at a time."""

    def __init__(
        self,
        bounds: Rect,
        n_nodes: int,
        queries: list[RangeQuery],
        reduction: ReductionFunction,
        config: LiraConfig | None = None,
        service_rate: float = 1000.0,
        queue_capacity: int = 100,
        station_radius: float = 2000.0,
        adaptive_throttle: bool = True,
        receive_substeps: int = 10,
        faults: FaultInjector | None = None,
        policy: str = "lira",
        policy_seed: int = 0,
    ) -> None:
        self.config = config or LiraConfig(l=49, alpha=64)
        self.bounds = bounds
        self.n_nodes = n_nodes
        self.policy = policy
        self.faults = faults
        self.reduction = reduction
        self.server = MessageCQServer(
            bounds, n_nodes, queries,
            service_rate=service_rate, queue_capacity=queue_capacity,
        )
        # Only THROTLOOP and the z bookkeeping: plans come from the
        # scalar kernels, never from ``shedder.adapt``.
        self.shedder = LiraLoadShedder(
            self.config, reduction, queue_capacity=queue_capacity
        )
        if adaptive_throttle:
            self.shedder.use_adaptive_throttle()
        self._inject = faults is not None and not faults.spec.is_null
        self.network = BaseStationNetwork(
            place_uniform_stations(bounds, station_radius),
            downlink=faults if self._inject else None,
        )
        self.node_engine = ObjectNodeEngine(n_nodes, self.network, bounds)
        self.fleet = DeadReckoningFleet(n_nodes)
        self.history = TrajectoryStore(n_nodes)
        self.receive_substeps = max(1, receive_substeps)
        self.plans: list[SheddingPlan] = []
        self._policy_rng = np.random.default_rng(policy_seed)
        self.current_time = 0.0

    def bootstrap(self, positions: np.ndarray, velocities: np.ndarray) -> None:
        all_ids = self.fleet.observe(0.0, positions, velocities)
        self.server.table.ingest(0.0, all_ids, positions[all_ids], velocities[all_ids])
        self.history.record(0.0, all_ids, positions[all_ids], velocities[all_ids])

    def adapt(self, positions: np.ndarray, speeds: np.ndarray) -> None:
        measurement = self.server.take_load_measurement()
        if measurement.period > 0:
            self.shedder.observe_load(
                measurement.arrival_rate, self.server.service_rate
            )
        if self.policy == "random-drop":
            plan = self.plans[-1] if self.plans else SheddingPlan.from_regions(
                bounds=self.bounds,
                regions=[RegionStats(rect=self.bounds, n=0.0, m=0.0, s=0.0)],
                thresholds=clamp_thresholds(
                    np.array([self.config.delta_min]), self.config
                ),
                resolution=1,
            )
        else:
            grid = StatisticsGrid.from_snapshot(
                self.bounds, self.config.resolved_alpha,
                positions, speeds, self.server.queries,
            )
            plan = reference_plan(
                self.config, self.reduction, grid, self.shedder.current_z
            )
        self.network.install_plan(plan, t=self.current_time)
        self.plans.append(plan)

    def tick(
        self, t: float, positions: np.ndarray, velocities: np.ndarray, dt: float
    ) -> int:
        self.current_time = t
        faults = self.faults
        active = None
        rate_factor = 1.0
        if self._inject:
            self.network.deliver_pending(t)
            active = faults.churn_step(self.n_nodes)
            rate_factor = faults.service_factor(t)
        thresholds = self.node_engine.compute_thresholds(
            positions, active, default=self.config.delta_min
        )
        self.fleet.set_thresholds(thresholds)
        senders = self.fleet.observe(t, positions, velocities)
        self.history.record(t, senders, positions[senders], velocities[senders])
        ids, pos, vel, times = senders, positions[senders], velocities[senders], None
        if self._inject:
            ids, pos, vel, times = faults.uplink(t, ids, pos, vel)
        elif faults is not None:
            faults.counters.uplink_sent += int(senders.size)
            faults.counters.uplink_delivered += int(senders.size)
        admit = 1.0 if self.policy == "lira" else self.shedder.current_z
        for chunk in np.array_split(np.arange(ids.size), self.receive_substeps):
            self.server.receive_reports(
                t, ids[chunk], pos[chunk], vel[chunk],
                times=times[chunk] if times is not None else None,
                admit_fraction=admit,
                admit_rng=self._policy_rng if admit < 1.0 else None,
            )
            self.server.process(dt / self.receive_substeps, rate_factor=rate_factor)
        return int(senders.size)

    def evaluate_queries(self, t: float | None = None) -> list[np.ndarray]:
        return self.server.evaluate_queries(self.current_time if t is None else t)

    def stats(self) -> SystemStats:
        mean_staleness, stale_fraction = self.network.staleness(self.current_time)
        faults = self.faults
        counters = faults.counters if faults is not None else None
        return SystemStats(
            time=self.current_time,
            z=self.shedder.current_z,
            queue_length=len(self.server.queue),
            queue_drops=self.server.queue.total_dropped,
            updates_sent=self.fleet.total_reports,
            updates_processed=self.server.table.updates_applied,
            broadcast_bytes=self.network.total_broadcast_bytes,
            handoffs=self.node_engine.total_handoffs,
            plan_version=self.network.version,
            mean_plan_staleness=mean_staleness,
            stale_station_fraction=stale_fraction,
            uplink_sent=counters.uplink_sent if counters else 0,
            uplink_lost=counters.uplink_lost if counters else 0,
            uplink_delayed=counters.uplink_delayed if counters else 0,
            uplink_in_flight=faults.uplink_in_flight if faults is not None else 0,
            downlink_lost=counters.downlink_lost if counters else 0,
            downlink_delayed=counters.downlink_delayed if counters else 0,
            admission_drops=self.server.counts.shed,
            updates_discarded=self.server.table.updates_discarded,
            slow_ticks=counters.slow_ticks if counters else 0,
            active_nodes=(
                int(faults.active_mask.sum())
                if faults is not None and faults.active_mask is not None
                else self.n_nodes
            ),
        )


def run_deployment(
    system_cls: type,
    trace: Trace,
    queries: list[RangeQuery],
    spec: FaultSpec | None = None,
    seed: int = 9,
    service_rate: float = 500.0,
    **keywords: Any,
) -> tuple[Any, list[int]]:
    """Drive the suites' bounded deployment of ``system_cls`` to the end
    of ``trace``: f on [5, 100] m, l = 13, α = 32, μ = ``service_rate``,
    B = 60, r = 1 500 m, THROTLOOP on, an adapt every 4 ticks, faults from
    ``spec`` seeded with ``seed``; ``keywords`` (``policy``, ``n_shards``)
    go to the constructor.  Returns the system and the reports sent per
    tick.  An archive is attached (the oracle's own is replaced alike), so
    two runs' reports can be compared bit for bit."""
    system = system_cls(
        bounds=trace.bounds,
        n_nodes=trace.num_nodes,
        queries=queries,
        reduction=AnalyticReduction(5.0, 100.0),
        config=LiraConfig(l=13, alpha=32),
        service_rate=service_rate,
        queue_capacity=60,
        station_radius=1500.0,
        adaptive_throttle=True,
        faults=None if spec is None else FaultInjector(spec, seed=seed),
        policy_seed=3,
        **keywords,
    )
    system.history = TrajectoryStore(trace.num_nodes)
    system.bootstrap(trace.positions[0], trace.velocities[0])
    sent = []
    for tick in range(trace.num_ticks):
        positions = trace.positions[tick]
        if tick % 4 == 0:
            system.adapt(positions, trace.speeds(tick))
        sent.append(system.tick(tick * trace.dt, positions, trace.velocities[tick], trace.dt))
    return system, sent
