"""Sharded multi-server LIRA: K spatial shards behind one coordinator.

The single-process :class:`~repro.server.system.LiraSystem` tops out at
one core; this module splits the deployment across K *shards*, each a
complete vertical slice of the architecture — its own bounded-queue CQ
server (over a compact node table), its own base stations with their
plan subsets, its own vectorized node engine and dead-reckoning fleet,
its own GRIDREDUCE/GREEDYINCREMENT shedder, and its own THROTLOOP — so
K servers provide K times the ingest capacity, which is exactly the
server-cost scaling story of the paper's Fig. 14.

Partitioning and routing
    Stations are assigned to shards by rendezvous hashing over station
    ids (:mod:`repro.server.sharding`); a node belongs to the shard
    owning its serving station.  All shard engines share one global
    :class:`~repro.server.node_engine.StationAssigner`, so a node's
    station — and therefore its shard — is a pure deterministic
    function of its position, identical to the unsharded deployment.

Handoff protocol
    During a tick each shard computes its nodes' station slots as
    usual; nodes whose new station belongs to another shard are
    recorded as departures *after* the tick completes (their tick-T
    report still lands in the old shard's queue, like a mobile handover
    completing mid-call).  The buffered records are applied at the
    start of the next tick in deterministic (source shard, node id)
    order: the node's engine/fleet/table rows are surgically moved to
    the destination shard.  Reports still sitting in the source queue
    when the node leaves are discarded at table-ingest time and counted
    (``updates_orphaned``).

Budget coordination
    Each shard runs its own THROTLOOP against its own measured load.
    Every ``rebalance_every`` adaptations the coordinator computes the
    global budget ``z = Σ w_k · z_k`` (load-weighted mean, weights from
    measured per-shard arrivals) and re-allocates it as per-shard
    budgets ``b_k = z · w_k`` with the remainder pinned so that
    ``Σ b_k == z`` exactly; shard k's throttle becomes ``b_k / w_k``
    (clamped to its THROTLOOP floor).  At K=1 the weight is exactly 1.0
    and the whole step is an arithmetic identity.

Equivalence contract
    With ``n_shards=1`` every seam — fault injection included — runs
    operation-for-operation the code of :class:`LiraSystem`, and the
    output (SystemStats, plans, thresholds, query results, history) is
    bit-identical.  With ``n_shards>1`` runs are bit-reproducible per
    seed, and the process-pool execution path (``n_workers>1``) is
    bit-identical to the in-process path: shards advance in lockstep,
    one tick per pool round, with handoffs synchronized at tick
    boundaries either way.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core import LiraConfig, LiraLoadShedder, StatisticsGrid
from repro.core.greedy import RegionStats
from repro.core.plan import SheddingPlan, clamp_thresholds
from repro.core.reduction import ReductionFunction
from repro.faults import FaultInjector
from repro.geo import Rect
from repro.history import TrajectoryStore
from repro.motion import DeadReckoningFleet
from repro.queries import RangeQuery
from repro.sanitize import rng_discipline
from repro.server.base_station import BaseStation, place_uniform_stations
from repro.server.cq_server import MobileCQServer
from repro.server.node_engine import StationAssigner, VectorNodeEngine
from repro.server.protocol import BaseStationNetwork, RegionSubset
from repro.server.sharding import ShardRouter
from repro.server.system import POLICIES, SystemStats
from repro.timing import Stopwatch

_EMPTY_I64 = np.empty(0, dtype=np.int64)


class _ShardDirectory:
    """Live merged station→subset view across the per-shard networks.

    Satisfies the node engine's ``SubsetProvider`` protocol: any shard's
    engine can resolve the subset of *any* station, whichever shard's
    network installed it — the sharded twin of one global network.
    """

    def __init__(
        self,
        stations: list[BaseStation],
        network_by_station: dict[int, BaseStationNetwork],
    ) -> None:
        self.stations = stations
        self._network_by_station = network_by_station

    def subset_or_none(self, station_id: int) -> RegionSubset | None:
        network = self._network_by_station.get(station_id)
        if network is None:
            return None
        return network.subset_or_none(station_id)

    def snapshot(self) -> dict[int, RegionSubset | None]:
        """Picklable per-station subset snapshot for pool workers."""
        return {
            station.station_id: self.subset_or_none(station.station_id)
            for station in self.stations
        }


class _SnapshotDirectory:
    """A pool worker's frozen copy of the subset directory."""

    def __init__(
        self,
        stations: list[BaseStation],
        subsets: dict[int, RegionSubset | None],
    ) -> None:
        self.stations = stations
        self._subsets = subsets

    def subset_or_none(self, station_id: int) -> RegionSubset | None:
        return self._subsets.get(station_id)


@dataclass
class RebalanceReport:
    """Diagnostics of one coordinator budget-rebalance step."""

    weights: np.ndarray
    z_global: float
    budgets: np.ndarray


class LiraShard:
    """One shard's complete vertical slice of the deployment."""

    def __init__(
        self,
        shard_id: int,
        stations: list[BaseStation],
        bounds: Rect,
        config: LiraConfig,
        reduction: ReductionFunction,
        queries: list[RangeQuery],
        service_rate: float,
        queue_capacity: int,
        adaptive_throttle: bool,
        policy_seed: int,
        assigner: StationAssigner,
        downlink: FaultInjector | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.stations = stations
        self.bounds = bounds
        self.config = config
        self.queries = queries
        self.service_rate = service_rate
        self.queue_capacity = queue_capacity
        self.assigner = assigner
        self.network = (
            BaseStationNetwork(stations, downlink=downlink) if stations else None
        )
        self.shedder = LiraLoadShedder(
            config, reduction, queue_capacity=queue_capacity, engine="vector"
        )
        if adaptive_throttle:
            self.shedder.use_adaptive_throttle()
        # Shard 0 reuses the exact LiraSystem stream (K=1 bit-identity);
        # other shards get independent deterministic streams.
        self._policy_rng = np.random.default_rng(
            policy_seed if shard_id == 0 else [policy_seed, shard_id]
        )
        self._trivial_plan_cache: SheddingPlan | None = None
        self.last_tick_seconds = 0.0
        # Placeholders until the coordinator's bootstrap() adopts the
        # initial node partition.
        self.server: MobileCQServer | None = None
        self.engine: VectorNodeEngine | None = None
        self.fleet: DeadReckoningFleet | None = None

    @property
    def ids(self) -> np.ndarray:
        """Owned global node ids, ascending (the table's row order)."""
        assert self.server is not None
        return self.server.table.ids  # type: ignore[union-attr]

    def adopt(self, ids: np.ndarray, directory: Any) -> None:
        """Create the per-node state for the initial owned partition."""
        self.server = MobileCQServer(
            self.bounds,
            int(ids.size),
            self.queries,
            service_rate=self.service_rate,
            queue_capacity=self.queue_capacity,
            batch_ingest=True,
            node_ids=ids,
        )
        self.engine = VectorNodeEngine(
            int(ids.size), directory, self.bounds, assigner=self.assigner
        )
        self.fleet = DeadReckoningFleet(int(ids.size))

    def trivial_plan(self) -> SheddingPlan:
        """One region covering the bounds at Δ⊢ (Random Drop regime)."""
        if self._trivial_plan_cache is None:
            region = RegionStats(rect=self.bounds, n=0.0, m=0.0, s=0.0)
            self._trivial_plan_cache = SheddingPlan.from_regions(
                bounds=self.bounds,
                regions=[region],
                thresholds=clamp_thresholds(
                    np.array([self.config.delta_min]), self.config
                ),
                resolution=1,
            )
        return self._trivial_plan_cache

    # ------------------------------------------------------------------
    # Row surgery (handoff)
    # ------------------------------------------------------------------

    def extract_nodes(self, node_ids: np.ndarray) -> dict[str, dict[str, np.ndarray]]:
        """Remove the given (ascending) global ids; return their state."""
        assert self.server is not None and self.engine is not None
        assert self.fleet is not None
        table = self.server.table
        rows = table.rows_of(node_ids)  # type: ignore[union-attr]
        return {
            "engine": self.engine.extract_rows(rows),
            "fleet": self.fleet.extract_rows(rows),
            "table": table.extract_rows(rows),  # type: ignore[union-attr]
        }

    def insert_nodes(
        self, node_ids: np.ndarray, state: dict[str, dict[str, np.ndarray]]
    ) -> None:
        """Adopt nodes extracted from another shard (ascending ids)."""
        assert self.server is not None and self.engine is not None
        assert self.fleet is not None
        at = np.searchsorted(self.ids, node_ids)
        self.engine.insert_rows(at, state["engine"])
        self.fleet.insert_rows(at, state["fleet"])
        self.server.table.insert_rows(at, node_ids, state["table"])  # type: ignore[union-attr]


def _slice_state(
    state: dict[str, dict[str, np.ndarray]], sel: np.ndarray
) -> dict[str, dict[str, np.ndarray]]:
    return {
        component: {key: value[sel] for key, value in arrays.items()}
        for component, arrays in state.items()
    }


def _concat_states(
    states: list[dict[str, dict[str, np.ndarray]]],
) -> dict[str, dict[str, np.ndarray]]:
    first = states[0]
    return {
        component: {
            key: np.concatenate([s[component][key] for s in states])
            for key in arrays
        }
        for component, arrays in first.items()
    }


def _run_shard_tick(
    *,
    shard_id: int,
    engine: VectorNodeEngine,
    fleet: DeadReckoningFleet,
    server: MobileCQServer,
    ids: np.ndarray | None,
    positions: np.ndarray,
    velocities: np.ndarray,
    t: float,
    dt: float,
    substeps: int,
    default_delta: float,
    active: np.ndarray | None,
    rate_factor: float,
    admit: float,
    admit_rng: np.random.Generator,
    station_shard: np.ndarray | None,
    uplink: Callable[..., Any] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One shard's data-path tick: the single kernel both execution
    paths (in-process and pool worker) run, so they are bit-identical.

    ``ids=None`` is the owns-all fast path (no gather happened; row
    index == global id), which at ``n_shards=1`` makes this function
    operation-for-operation :meth:`LiraSystem.tick`'s data path.
    Returns ``(sender_ids, sender_pos, sender_vel, departure_ids,
    departure_dst)`` — senders in *global* ids for history recording,
    departures for the coordinator's next-tick handoff.
    """
    thresholds = engine.compute_thresholds(positions, active, default=default_delta)
    if station_shard is not None:
        # Post-update slots: nodes now served by a foreign station
        # depart at the end of this tick.
        dest = station_shard[engine._station_slot]
        moved = np.flatnonzero(dest != shard_id)
        if moved.size:
            departure_ids = ids[moved] if ids is not None else moved.copy()
            departure_dst = dest[moved]
        else:
            departure_ids, departure_dst = _EMPTY_I64, _EMPTY_I64
    else:
        departure_ids, departure_dst = _EMPTY_I64, _EMPTY_I64
    fleet.set_thresholds(thresholds)
    senders = fleet.observe(t, positions, velocities)
    sender_ids = ids[senders] if ids is not None else senders
    sender_pos = positions[senders]
    sender_vel = velocities[senders]
    if uplink is not None:
        u_ids, u_pos, u_vel, u_times = uplink(t, sender_ids, sender_pos, sender_vel)
    else:
        u_ids, u_pos, u_vel, u_times = sender_ids, sender_pos, sender_vel, None
    # Slice-based substep chunking, exactly LiraSystem.tick's rule.
    n, k = int(u_ids.size), substeps
    base, extra = divmod(n, k)
    lo = 0
    for c in range(k):
        hi = lo + base + (1 if c < extra else 0)
        chunk = slice(lo, hi)
        lo = hi
        server.receive_reports(
            t,
            u_ids[chunk],
            u_pos[chunk],
            u_vel[chunk],
            times=u_times[chunk] if u_times is not None else None,
            admit_fraction=admit,
            admit_rng=admit_rng if admit < 1.0 else None,
        )
        server.process(dt / substeps, rate_factor=rate_factor)
    return sender_ids, sender_pos, sender_vel, departure_ids, departure_dst


# ----------------------------------------------------------------------
# Process-pool execution: one tick per shard per round
# ----------------------------------------------------------------------

_WORKER_ASSIGNER: StationAssigner | None = None
_WORKER_STATIONS: list[BaseStation] | None = None
_WORKER_BOUNDS: Rect | None = None


def _pool_init(stations: list[BaseStation], bounds: Rect) -> None:
    """Worker initializer: build the shared assigner once per process."""
    global _WORKER_ASSIGNER, _WORKER_STATIONS, _WORKER_BOUNDS
    _WORKER_STATIONS = stations
    _WORKER_BOUNDS = bounds
    _WORKER_ASSIGNER = StationAssigner(stations, bounds)


def _pool_tick_job(payload: tuple) -> tuple:
    """Execute one shard's tick in a pool worker.

    The shard's SoA state (engine arrays, fleet, server with its compact
    table and queue, admission RNG) round-trips through the payload, so
    no worker affinity is assumed: any worker can tick any shard on any
    round and the result is bit-identical to the in-process path.
    """
    (
        shard_id,
        ids,
        engine_state,
        fleet,
        server,
        subsets,
        positions,
        velocities,
        t,
        dt,
        substeps,
        default_delta,
        admit,
        admit_rng,
        station_shard,
    ) = payload
    assert _WORKER_ASSIGNER is not None and _WORKER_BOUNDS is not None
    assert _WORKER_STATIONS is not None
    directory = _SnapshotDirectory(_WORKER_STATIONS, subsets)
    n_rows = int(engine_state["station_slot"].size)
    engine = VectorNodeEngine(
        n_rows, directory, _WORKER_BOUNDS, assigner=_WORKER_ASSIGNER
    )
    engine._station_slot = engine_state["station_slot"]
    engine._installed_version = engine_state["installed_version"]
    engine._handoffs = engine_state["handoffs"]
    engine._installs = engine_state["installs"]
    engine.total_handoffs = int(engine_state["total_handoffs"])
    with Stopwatch() as watch:
        sender_ids, sender_pos, sender_vel, dep_ids, dep_dst = _run_shard_tick(
            shard_id=shard_id,
            engine=engine,
            fleet=fleet,
            server=server,
            ids=ids,
            positions=positions,
            velocities=velocities,
            t=t,
            dt=dt,
            substeps=substeps,
            default_delta=default_delta,
            active=None,
            rate_factor=1.0,
            admit=admit,
            admit_rng=admit_rng,
            station_shard=station_shard,
        )
    out_state = {
        "station_slot": engine._station_slot,
        "installed_version": engine._installed_version,
        "handoffs": engine._handoffs,
        "installs": engine._installs,
        "total_handoffs": engine.total_handoffs,
    }
    return (
        out_state,
        fleet,
        server,
        sender_ids,
        sender_pos,
        sender_vel,
        dep_ids,
        dep_dst,
        admit_rng,
        watch.elapsed,
    )


class ShardedLiraSystem:
    """K-shard LIRA deployment with a thin global-budget coordinator.

    Mirrors :class:`~repro.server.system.LiraSystem`'s driving API
    (``bootstrap`` → ``adapt`` → ``tick`` … / ``stats`` /
    ``evaluate_queries``) and is bit-identical to it at ``n_shards=1``.
    ``bootstrap`` must run before ``adapt``/``tick``: the initial node
    partition is derived from the bootstrap positions.

    Args:
        n_shards: K, the number of spatial shards.
        n_workers: >1 executes shard ticks on a process pool (capped at
            K, forced to 1 on single-core hosts — a pool cannot beat the
            serial loop there); shards round-trip their SoA state per
            tick, so results are bit-identical to in-process execution.
        rebalance_every: coordinator budget-rebalance cadence, in
            adaptations.
        service_rate: per-shard μ — K shards provide K-fold capacity.
        faults: supported at ``n_shards=1`` (bit-identical to
            :class:`LiraSystem` under the same injector); a non-null
            spec with K>1 raises.
    """

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
        stations: list[BaseStation] | None = None,
        adaptive_throttle: bool = True,
        receive_substeps: int = 10,
        faults: FaultInjector | None = None,
        policy: str = "lira",
        policy_seed: int = 0,
        n_shards: int = 1,
        n_workers: int = 1,
        rebalance_every: int = 1,
        shard_salt: int = 0,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if rebalance_every < 1:
            raise ValueError("rebalance_every must be >= 1")
        self.config = config or LiraConfig(l=49, alpha=64)
        self.bounds = bounds
        self.n_nodes = n_nodes
        self.queries = list(queries)
        self.policy = policy
        self.faults = faults
        self.n_shards = n_shards
        self.rebalance_every = rebalance_every
        self._faults_null = faults is not None and faults.spec.is_null
        if faults is not None and not self._faults_null and n_shards > 1:
            raise NotImplementedError(
                "fault injection is supported at n_shards=1 only"
            )
        self._adaptive = adaptive_throttle
        station_list = stations or place_uniform_stations(bounds, station_radius)
        self.router = ShardRouter(station_list, bounds, n_shards, salt=shard_salt)
        inject = faults is not None and not self._faults_null
        self.shards: list[LiraShard] = [
            LiraShard(
                k,
                self.router.stations_for(k),
                bounds,
                self.config,
                reduction,
                self.queries,
                service_rate,
                queue_capacity,
                adaptive_throttle,
                policy_seed,
                self.router.assigner,
                downlink=faults if inject and k == 0 else None,
            )
            for k in range(n_shards)
        ]
        network_by_station: dict[int, BaseStationNetwork] = {}
        for shard in self.shards:
            if shard.network is None:
                continue
            for station in shard.stations:
                network_by_station[station.station_id] = shard.network
        self.directory = _ShardDirectory(station_list, network_by_station)
        self.history = TrajectoryStore(n_nodes)
        self.receive_substeps = max(1, receive_substeps)
        # A pool on a single-core host is a pessimization (the same
        # rationale as repro.experiments.runner.run_jobs's fallback).
        cores = os.cpu_count() or 1
        self.n_workers = 1 if cores <= 1 else max(1, min(n_workers, n_shards))
        self._pool: ProcessPoolExecutor | None = None
        self._pending_handoffs: list[tuple[np.ndarray, np.ndarray]] = [
            (_EMPTY_I64, _EMPTY_I64) for _ in range(n_shards)
        ]
        # Row-surgery seconds per shard for the tick being executed:
        # extraction is the source shard's work, insertion the
        # destination's (a real shard serializes/merges its own rows;
        # the coordinator only relays the records), so the timing
        # accounting bills them to the shards, not the coordinator.
        self._surgery_seconds = [0.0] * n_shards
        self.total_cross_handoffs = 0
        self._plan_installed = False
        self._bootstrapped = False
        self._adapt_count = 0
        self._z_global = self.shards[0].shedder.current_z
        self.last_rebalance: RebalanceReport | None = None
        self.last_tick_seconds = 0.0
        self.current_time = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def bootstrap(self, positions: np.ndarray, velocities: np.ndarray) -> None:
        """Register the population and derive the initial partition.

        Mirrors :meth:`LiraSystem.bootstrap` (out-of-band registration,
        not steady-state load); node→shard ownership comes from the
        serving station of each bootstrap position.
        """
        if self._bootstrapped:
            raise RuntimeError("bootstrap() may only be called once")
        x = np.ascontiguousarray(positions[:, 0], dtype=np.float64)
        y = np.ascontiguousarray(positions[:, 1], dtype=np.float64)
        owner = self.router.shard_of_positions(x, y)
        t = 0.0
        for k, shard in enumerate(self.shards):
            ids_k = np.flatnonzero(owner == k).astype(np.int64)
            shard.adopt(ids_k, self.directory)
            owns_all = ids_k.size == self.n_nodes
            pos_k = positions if owns_all else positions[ids_k]
            vel_k = velocities if owns_all else velocities[ids_k]
            assert shard.fleet is not None and shard.server is not None
            all_local = shard.fleet.observe(t, pos_k, vel_k)
            shard.server.table.ingest(
                t, ids_k[all_local], pos_k[all_local], vel_k[all_local]
            )
            self.history.record(
                t, ids_k[all_local], pos_k[all_local], vel_k[all_local]
            )
        self._bootstrapped = True

    def close(self) -> None:
        """Shut down the process pool (no-op when in-process)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ShardedLiraSystem":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                initializer=_pool_init,
                initargs=(self.router.stations, self.bounds),
            )
        return self._pool

    # ------------------------------------------------------------------
    # Server-side control path
    # ------------------------------------------------------------------

    def adapt(self, positions: np.ndarray, speeds: np.ndarray) -> None:
        """One adaptation across all shards + coordinator rebalance."""
        if not self._bootstrapped:
            raise RuntimeError("call bootstrap() before adapt()")
        # Under REPRO_SANITIZE=1 any hidden global-RNG draw in the
        # adaptation path raises instead of silently de-seeding runs.
        with rng_discipline():
            self._adapt_impl(positions, speeds)

    def _adapt_impl(self, positions: np.ndarray, speeds: np.ndarray) -> None:
        measurements = []
        for shard in self.shards:
            assert shard.server is not None
            measurement = shard.server.take_load_measurement()
            measurements.append(measurement)
            if measurement.period > 0:
                shard.shedder.observe_load(
                    measurement.arrival_rate, shard.server.service_rate
                )
        self._adapt_count += 1
        if (
            self.n_shards > 1
            and self._adaptive
            and self._adapt_count % self.rebalance_every == 0
        ):
            self._rebalance(measurements)
        for shard in self.shards:
            if shard.network is None:
                continue
            if self.policy == "random-drop":
                plan = shard.trivial_plan()
            else:
                ids = shard.ids
                owns_all = ids.size == self.n_nodes
                pos_k = positions if owns_all else positions[ids]
                spd_k = speeds if owns_all else speeds[ids]
                grid = StatisticsGrid.from_snapshot(
                    self.bounds,
                    self.config.resolved_alpha,
                    pos_k,
                    spd_k,
                    self.queries,
                )
                plan = shard.shedder.adapt(grid)
            shard.network.install_plan(plan, t=self.current_time)
        self._plan_installed = True

    def _rebalance(self, measurements: list) -> None:
        """Re-allocate the global throttle budget across shards.

        Weights are measured arrival shares (falling back to owned-node
        shares, then uniform, when the period saw no arrivals); the
        global budget is the weighted mean of the per-shard THROTLOOP
        outputs and is conserved exactly: the last loaded shard absorbs
        the floating-point remainder so ``Σ b_k == z_global`` to the bit.
        """
        arrivals = np.array([float(m.arrivals) for m in measurements])
        total = arrivals.sum()
        if total > 0:
            weights = arrivals / total
        else:
            sizes = np.array([float(s.ids.size) for s in self.shards])
            if sizes.sum() > 0:
                weights = sizes / sizes.sum()
            else:
                weights = np.full(self.n_shards, 1.0 / self.n_shards)
        zs = np.array([s.shedder.throtloop.z for s in self.shards])
        z_global = float(weights @ zs)
        budgets = z_global * weights
        loaded = np.flatnonzero(weights > 0)
        last = int(loaded[-1])
        others = np.delete(np.arange(self.n_shards), last)
        budgets[last] = z_global - float(budgets[others].sum())
        for k in loaded:
            throtloop = self.shards[int(k)].shedder.throtloop
            throtloop.z = min(
                1.0, max(throtloop.z_floor, float(budgets[k] / weights[k]))
            )
        self._z_global = z_global
        self.last_rebalance = RebalanceReport(
            weights=weights, z_global=z_global, budgets=budgets
        )

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def tick(
        self, t: float, positions: np.ndarray, velocities: np.ndarray, dt: float
    ) -> int:
        """One sampling period across all shards; returns reports sent."""
        if not self._bootstrapped:
            raise RuntimeError("call bootstrap() before tick()")
        if not self._plan_installed:
            raise RuntimeError("call adapt() before the first tick()")
        self.current_time = t
        faults = self.faults
        inject = faults is not None and not self._faults_null
        active = None
        rate_factor = 1.0
        with Stopwatch() as total_watch:
            if inject:
                assert faults is not None
                network = self.shards[0].network
                assert network is not None
                network.deliver_pending(t)
                active = faults.churn_step(self.n_nodes)
                rate_factor = faults.service_factor(t)
            self._apply_handoffs()
            if self.n_workers > 1:
                total_sent = self._tick_pooled(t, positions, velocities, dt)
            else:
                total_sent = self._tick_serial(
                    t,
                    positions,
                    velocities,
                    dt,
                    active,
                    rate_factor,
                    faults if inject else None,
                )
            if not inject and faults is not None:
                counters = faults.counters
                counters.uplink_sent += total_sent
                counters.uplink_delivered += total_sent
        self.last_tick_seconds = total_watch.elapsed
        return total_sent

    def _tick_serial(
        self,
        t: float,
        positions: np.ndarray,
        velocities: np.ndarray,
        dt: float,
        active: np.ndarray | None,
        rate_factor: float,
        inject_faults: FaultInjector | None,
    ) -> int:
        station_shard = self.router.station_shard if self.n_shards > 1 else None
        total_sent = 0
        for shard in self.shards:
            assert shard.engine is not None and shard.fleet is not None
            assert shard.server is not None
            admit = 1.0 if self.policy == "lira" else shard.shedder.current_z
            with Stopwatch() as watch:
                ids = shard.ids
                owns_all = ids.size == self.n_nodes
                if owns_all:
                    ids_arg, pos_k, vel_k, active_k = (
                        None,
                        positions,
                        velocities,
                        active,
                    )
                else:
                    # The owned-row gather is shard work (a real shard's
                    # ingest would receive exactly these rows), so it
                    # counts toward the shard's tick time, not the
                    # coordinator's.
                    ids_arg, pos_k, vel_k, active_k = (
                        ids,
                        positions[ids],
                        velocities[ids],
                        None,
                    )
                (
                    sender_ids,
                    sender_pos,
                    sender_vel,
                    dep_ids,
                    dep_dst,
                ) = _run_shard_tick(
                    shard_id=shard.shard_id,
                    engine=shard.engine,
                    fleet=shard.fleet,
                    server=shard.server,
                    ids=ids_arg,
                    positions=pos_k,
                    velocities=vel_k,
                    t=t,
                    dt=dt,
                    substeps=self.receive_substeps,
                    default_delta=self.config.delta_min,
                    active=active_k,
                    rate_factor=rate_factor,
                    admit=admit,
                    admit_rng=shard._policy_rng,
                    station_shard=station_shard,
                    uplink=inject_faults.uplink if inject_faults is not None else None,
                )
                self.history.record(t, sender_ids, sender_pos, sender_vel)
            shard.last_tick_seconds = (
                watch.elapsed + self._surgery_seconds[shard.shard_id]
            )
            self._pending_handoffs[shard.shard_id] = (dep_ids, dep_dst)
            total_sent += int(sender_ids.size)
        return total_sent

    def _tick_pooled(
        self,
        t: float,
        positions: np.ndarray,
        velocities: np.ndarray,
        dt: float,
    ) -> int:
        station_shard = self.router.station_shard if self.n_shards > 1 else None
        subsets = self.directory.snapshot()
        payloads = []
        for shard in self.shards:
            assert shard.engine is not None
            ids = shard.ids
            owns_all = ids.size == self.n_nodes
            if owns_all:
                ids_arg, pos_k, vel_k = None, positions, velocities
            else:
                ids_arg, pos_k, vel_k = ids.copy(), positions[ids], velocities[ids]
            admit = 1.0 if self.policy == "lira" else shard.shedder.current_z
            engine_state = {
                "station_slot": shard.engine._station_slot,
                "installed_version": shard.engine._installed_version,
                "handoffs": shard.engine._handoffs,
                "installs": shard.engine._installs,
                "total_handoffs": shard.engine.total_handoffs,
            }
            payloads.append(
                (
                    shard.shard_id,
                    ids_arg,
                    engine_state,
                    shard.fleet,
                    shard.server,
                    subsets,
                    pos_k,
                    vel_k,
                    t,
                    dt,
                    self.receive_substeps,
                    self.config.delta_min,
                    admit,
                    shard._policy_rng,
                    station_shard,
                )
            )
        pool = self._ensure_pool()
        results = list(pool.map(_pool_tick_job, payloads))
        total_sent = 0
        for shard, result in zip(self.shards, results):
            (
                engine_state,
                fleet,
                server,
                sender_ids,
                sender_pos,
                sender_vel,
                dep_ids,
                dep_dst,
                admit_rng,
                elapsed,
            ) = result
            assert shard.engine is not None
            shard.engine._station_slot = engine_state["station_slot"]
            shard.engine._installed_version = engine_state["installed_version"]
            shard.engine._handoffs = engine_state["handoffs"]
            shard.engine._installs = engine_state["installs"]
            shard.engine.total_handoffs = int(engine_state["total_handoffs"])
            shard.engine.n_nodes = int(engine_state["station_slot"].size)
            shard.fleet = fleet
            shard.server = server
            shard._policy_rng = admit_rng
            shard.last_tick_seconds = (
                elapsed + self._surgery_seconds[shard.shard_id]
            )
            self.history.record(t, sender_ids, sender_pos, sender_vel)
            self._pending_handoffs[shard.shard_id] = (dep_ids, dep_dst)
            total_sent += int(sender_ids.size)
        return total_sent

    def _apply_handoffs(self) -> int:
        """Apply the previous tick's buffered cross-shard departures.

        Rows move source-by-source in ascending shard order, each
        source's departures in ascending node id; destinations merge
        the incoming rows id-sorted.  No node is ever lost or
        duplicated: extraction and insertion are the same rows.
        """
        pending = self._pending_handoffs
        self._surgery_seconds = [0.0] * self.n_shards
        moved_total = sum(int(ids.size) for ids, _ in pending)
        if moved_total == 0:
            return 0
        buckets: list[list[tuple[np.ndarray, dict]]] = [
            [] for _ in range(self.n_shards)
        ]
        for src in range(self.n_shards):
            dep_ids, dep_dst = pending[src]
            if dep_ids.size == 0:
                continue
            with Stopwatch() as watch:
                state = self.shards[src].extract_nodes(dep_ids)
            self._surgery_seconds[src] += watch.elapsed
            for dst in range(self.n_shards):
                sel = np.flatnonzero(dep_dst == dst)
                if sel.size:
                    buckets[dst].append((dep_ids[sel], _slice_state(state, sel)))
        for dst in range(self.n_shards):
            entries = buckets[dst]
            if not entries:
                continue
            with Stopwatch() as watch:
                ids_in = np.concatenate([ids for ids, _ in entries])
                merged = _concat_states([state for _, state in entries])
                order = np.argsort(ids_in, kind="stable")
                self.shards[dst].insert_nodes(
                    ids_in[order], _slice_state(merged, order)
                )
            self._surgery_seconds[dst] += watch.elapsed
        self._pending_handoffs = [
            (_EMPTY_I64, _EMPTY_I64) for _ in range(self.n_shards)
        ]
        self.total_cross_handoffs += moved_total
        return moved_total

    # ------------------------------------------------------------------
    # Queries + introspection
    # ------------------------------------------------------------------

    def evaluate_queries(self, t: float | None = None) -> list[np.ndarray]:
        """Current CQ result sets, merged across shards (global ids)."""
        when = self.current_time if t is None else t
        parts: list[list[np.ndarray]] = [[] for _ in self.queries]
        for shard in self.shards:
            assert shard.server is not None
            ids_known, believed = shard.server.table.predict_known(when)  # type: ignore[union-attr]
            for q_index, query in enumerate(self.queries):
                parts[q_index].append(ids_known[query.evaluate(believed)])
        return [np.sort(np.concatenate(rows)) for rows in parts]

    def owned_ids(self) -> np.ndarray:
        """Concatenated owned ids across shards (conservation checks)."""
        return np.concatenate([shard.ids for shard in self.shards])

    @property
    def current_z(self) -> float:
        """The coordinator's view of the throttle budget."""
        if self.n_shards == 1 or not self._adaptive:
            return self.shards[0].shedder.current_z
        return self._z_global

    def set_throttle_fraction(self, z: float) -> None:
        """Pin every shard's z to a fixed value (overriding THROTLOOP)."""
        for shard in self.shards:
            shard.shedder.set_throttle_fraction(z)
        self._adaptive = False
        self._z_global = z

    def stats(self) -> SystemStats:
        """Aggregated system counters; bit-equal to LiraSystem at K=1."""
        active_networks = [
            (shard.network, len(shard.stations))
            for shard in self.shards
            if shard.network is not None
        ]
        if len(active_networks) == 1:
            mean_staleness, stale_fraction = active_networks[0][0].staleness(
                self.current_time
            )
        else:
            total_stations = sum(count for _, count in active_networks)
            mean_staleness = (
                sum(
                    network.staleness(self.current_time)[0] * count
                    for network, count in active_networks
                )
                / total_stations
            )
            stale_fraction = (
                sum(
                    network.staleness(self.current_time)[1] * count
                    for network, count in active_networks
                )
                / total_stations
            )
        counters = self.faults.counters if self.faults is not None else None
        active = self.faults.active_mask if self.faults is not None else None
        queue_length = 0
        queue_drops = 0
        updates_sent = 0
        updates_processed = 0
        broadcast_bytes = 0
        handoffs = 0
        admission_drops = 0
        updates_discarded = 0
        for shard in self.shards:
            assert shard.server is not None and shard.fleet is not None
            assert shard.engine is not None
            queue_length += len(shard.server.queue)
            queue_drops += shard.server.queue.total_dropped
            updates_sent += shard.fleet.total_reports
            updates_processed += shard.server.table.updates_applied
            if shard.network is not None:
                broadcast_bytes += shard.network.total_broadcast_bytes
            handoffs += shard.engine.total_handoffs
            admission_drops += shard.server.total_admission_dropped
            updates_discarded += shard.server.table.updates_discarded
        return SystemStats(
            time=self.current_time,
            z=self.current_z,
            queue_length=queue_length,
            queue_drops=queue_drops,
            updates_sent=updates_sent,
            updates_processed=updates_processed,
            broadcast_bytes=broadcast_bytes,
            handoffs=handoffs,
            plan_version=max(
                network.version for network, _ in active_networks
            ),
            mean_plan_staleness=mean_staleness,
            stale_station_fraction=stale_fraction,
            uplink_sent=counters.uplink_sent if counters else 0,
            uplink_lost=counters.uplink_lost if counters else 0,
            uplink_delayed=counters.uplink_delayed if counters else 0,
            uplink_in_flight=(
                self.faults.uplink_in_flight if self.faults is not None else 0
            ),
            downlink_lost=counters.downlink_lost if counters else 0,
            downlink_delayed=counters.downlink_delayed if counters else 0,
            admission_drops=admission_drops,
            updates_discarded=updates_discarded,
            slow_ticks=counters.slow_ticks if counters else 0,
            active_nodes=(
                int(active.sum()) if active is not None else self.n_nodes
            ),
        )
