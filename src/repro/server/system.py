"""LiraSystem: the complete three-layer deployment in one object.

Wires together everything the paper's architecture diagram shows:

* **layer 1** — the mobile CQ server (bounded queue, node table,
  statistics grid), the LIRA shedder, and THROTLOOP;
* **layer 2** — the base-station network broadcasting region subsets;
* **layer 3** — mobile nodes that store their station's subset, decide
  their throttler locally, and report via dead reckoning;

and keeps the nodes' *current* state only; a reader of the past
attaches its own archive (:attr:`LiraSystem.history`).  This is the
one closed loop — every update flows through the real component path.
The paper figures' :class:`~repro.sim.Simulation` measures one of
these (K=1, queue lifted, z pinned); with those settings it sends the
same updates on every tick as the direct per-tick lookup it replaced
(``tests/test_loop_parity.py``).

Layers 1 and 2 over one set of base stations are a
:class:`~repro.server.shard.LiraShard`; :class:`LiraSystem` runs layer 3
— one :class:`~repro.server.node_engine.VectorNodeEngine` and one
:class:`~repro.motion.DeadReckoningFleet` over the whole population, at
every K — and coordinates ``n_shards`` shards, so K servers provide K
times the ingest capacity — the server-cost scaling story of the
paper's Fig. 14.  One shard owning the whole population is the
degenerate partition: no router, no id gather, no ownership test.

Partitioning and routing
    Stations are assigned to shards by rendezvous hashing over station
    ids (:mod:`repro.server.sharding`); a node's reports go to the
    shard owning its serving station.  The one engine resolves a node's
    station from its position exactly as at K=1, so its shard is a pure
    deterministic function of its position, whatever K is.

Handoff protocol
    The shards apply reports through one node table over the whole
    population, addressed by global id; each shard's server holds a
    view of it (:meth:`~repro.index.NodeTable.shard_view`) that applies
    a report only if the shard owns its node at apply time.  A node
    whose serving station changed shard during tick T still reports to
    its old shard on tick T (like a mobile handover completing
    mid-call).  At the start of tick T+1 ownership follows the station:
    a handoff is one write to the owner array, and no model moves.
    Reports still sitting in the old shard's queue are dropped when that
    shard applies them and counted (``updates_orphaned``) — unless the
    node has come back to that shard by then.

Budget coordination
    Each shard runs its own THROTLOOP against its own measured load.
    Every adaptation the coordinator computes the global budget
    ``z = Σ w_k · z_k`` (load-weighted mean, weights from measured
    per-shard arrivals) and re-allocates it as per-shard
    budgets ``b_k = z · w_k`` with the remainder pinned so that
    ``Σ b_k == z`` exactly; shard k's throttle becomes ``b_k / w_k``
    (clamped to its THROTLOOP floor).

Faults
    Both wireless hops can be made imperfect by injecting a
    :class:`~repro.faults.FaultInjector` (``faults=``): update messages
    on the node→server uplink may be lost, delayed, or reordered; plan
    broadcasts on the server→station downlink may be lost or delayed
    (so nodes run with *stale* region subsets); the server may suffer
    transient service-rate dips; and nodes may churn.  With
    ``faults=None`` (or a null-spec injector) every code path is
    bit-identical to the perfect lossless deployment.  Injection works
    at every K: the node side draws churn, the uplink and the service
    factor once per tick, and every shard's network shares the one
    injector as its downlink, drawn station by station as the shards
    install their plans in ascending order.

Runs are bit-reproducible per seed at every K: one process runs the
node side once per tick and hands each shard its reports in shard
order, with handoffs synchronized at tick boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Iterator

import numpy as np

from repro.core import LiraConfig, LiraLoadShedder
from repro.core.reduction import ReductionFunction
from repro.faults import FaultInjector
from repro.geo import Rect
from repro.motion import DeadReckoningFleet
from repro.parallel import run_beside
from repro.queries import RangeQuery
from repro.sanitize import rng_discipline
from repro.server.base_station import place_uniform_stations
from repro.server.cq_server import LoadMeasurement, MobileCQServer
from repro.server.node_engine import SubsetProvider, VectorNodeEngine
from repro.server.protocol import BaseStationNetwork
from repro.server.shard import LiraShard, ShardDirectory
from repro.server.sharding import ShardRouter
from repro.shedding import PolicyFactory

#: Fleets of at most this many nodes compute the tick's deviation after
#: the Δ lookup, not on a helper thread beside it: a thread's start and
#: join (≈ 0.35 ms wall on a 2-core x86 container) cost more than the
#: ≈ 0.1 ms per 10 000 nodes of kernel it would hide.  Measured tick by
#: tick, the thread breaks even near 33 000 nodes.
SERIAL_DEVIATION_NODES = 32_768


@dataclass
class SystemStats:
    """A point-in-time summary of the running system.

    The fields after ``handoffs`` are degradation-aware accounting:
    plan-staleness ages, fault-layer loss/delay counters, and churn —
    all zero in a lossless deployment.  ``cross_handoffs`` and
    ``updates_orphaned`` are the partitioned deployment's terms (zero
    at one shard); with them, a fault-free run satisfies
    ``updates_sent == updates_processed + queue_length + queue_drops +
    admission_drops + updates_discarded + updates_orphaned``.
    """

    time: float
    z: float
    queue_length: int
    queue_drops: int
    updates_sent: int
    updates_processed: int
    broadcast_bytes: int
    handoffs: int
    plan_version: int = 0
    mean_plan_staleness: float = 0.0
    stale_station_fraction: float = 0.0
    uplink_sent: int = 0
    uplink_lost: int = 0
    uplink_delayed: int = 0
    uplink_in_flight: int = 0
    downlink_lost: int = 0
    downlink_delayed: int = 0
    admission_drops: int = 0
    updates_discarded: int = 0
    slow_ticks: int = 0
    active_nodes: int = 0
    cross_handoffs: int = 0
    updates_orphaned: int = 0


@dataclass
class RebalanceReport:
    """Diagnostics of one coordinator budget-rebalance step."""

    weights: np.ndarray
    z_global: float
    budgets: np.ndarray


class _NoArchive:
    """Default :attr:`LiraSystem.history`: keeps nothing.  An object, not
    ``None``, only while ``bench/layers.py`` pins ``history.record`` as a
    traced seam (ROADMAP item 4: drop that row, then this goes)."""

    def record(self, t, node_ids, positions, velocities) -> None:
        pass


class LiraSystem:
    """An end-to-end LIRA deployment over a fixed node population.

    Drive it with :meth:`bootstrap` (register the population),
    :meth:`adapt` (one server adaptation, typically every N ticks) and
    :meth:`tick` (one sampling period of true positions).  Query results
    come from :meth:`evaluate_queries`.  Nothing is archived unless a
    reader assigns :attr:`history` a store before :meth:`bootstrap`
    (``system.history = TrajectoryStore(system.n_nodes)``); it is then
    fed every batch of reports sent, at every K.  The node side,
    :attr:`node_engine` and :attr:`fleet`, is the system's at every K.
    At ``n_shards=1`` the one shard's components are also reachable as
    :attr:`server`, :attr:`shedder` and :attr:`network`; with more
    shards they are per shard (``shards[k].server`` …) and
    ``bootstrap`` must run before ``adapt``/``tick``: the initial node
    partition is derived from the bootstrap positions.

    Args:
        faults: optional fault injector wrapped around the protocol
            loop; ``None`` is the perfect channel.
        policy: a policy name (default ``"lira"``) or factory
            (:func:`~repro.shedding.policy_factory`): what builds each
            shard's plan source.  Every policy runs through the same
            protocol stack — e.g. ``"random-drop"`` is a one-region plan
            at Δ⊢ and server-side random admission at fraction z.
        policy_seed: seed for the Random Drop admission lottery.
        incremental: keep cross-round adaptation state in every shard's
            shedder (bit-identical plans; unchanged plans are not
            re-broadcast, same-geometry successors ship as deltas).
        service_rate: per-shard μ — K shards provide K-fold capacity.
        n_shards: K, the number of spatial shards.
    """

    # The one shard's components at ``n_shards=1`` (unset otherwise).
    server: MobileCQServer
    shedder: LiraLoadShedder
    network: BaseStationNetwork

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
        faults: FaultInjector | None = None,
        policy: str | PolicyFactory = "lira",
        policy_seed: int = 0,
        incremental: bool = False,
        n_shards: int = 1,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.config = config or LiraConfig(l=49, alpha=64)
        self.bounds = bounds
        self.n_nodes = n_nodes
        self.queries = list(queries)
        self.faults = faults
        self.n_shards = n_shards
        # A null-spec injector is contractually a no-op (every seam
        # passes batches through untouched), so the tick path skips the
        # fault seams entirely and only maintains the injector's O(1)
        # uplink bookkeeping — zero overhead versus ``faults=None``.
        inject = self._inject = faults is not None and not faults.spec.is_null
        self._adaptive = adaptive_throttle
        station_list = place_uniform_stations(bounds, station_radius)
        #: Station→shard ownership; ``None`` when one shard owns them all.
        self.router = ShardRouter(station_list, n_shards) if n_shards > 1 else None
        self.shards: list[LiraShard] = [
            LiraShard(
                k,
                station_list if self.router is None else self.router.stations_for(k),
                bounds,
                n_nodes,
                self.queries,
                reduction,
                self.config,
                service_rate,
                queue_capacity,
                adaptive_throttle,
                policy,
                policy_seed,
                incremental,
                downlink=faults if inject else None,
            )
            for k in range(n_shards)
        ]
        directory: SubsetProvider
        if self.router is None:
            only = self.shards[0]
            assert only.network is not None  # it owns every station
            self.server, self.shedder, self.network = (
                only.server, only.shedder, only.network,
            )
            directory = only.network
        else:
            directory = ShardDirectory(station_list, self.shards)
        self.node_engine = VectorNodeEngine(n_nodes, directory, bounds)
        self.fleet = DeadReckoningFleet(n_nodes)
        #: Shard each node reports to (``None`` at one shard, or before
        #: ``bootstrap``): its serving station's shard as of the end of
        #: the previous tick.
        self._owner: np.ndarray | None = None
        self.history: Any = _NoArchive()
        self.total_cross_handoffs = 0
        self._plan_installed = False
        self._z_global = self.shards[0].shedder.current_z
        self.last_rebalance: RebalanceReport | None = None
        self.current_time = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def bootstrap(self, positions: np.ndarray, velocities: np.ndarray) -> None:
        """Register the population's initial motion models out-of-band.

        Node registration happens once, at association time, and is not
        part of the steady-state update load THROTLOOP manages — pushing
        the entire population through the bounded queue in one tick
        would fabricate an overload.  Seeds the fleet's node-side
        models, the server tables, and an attached :attr:`history`
        consistently.  With several shards, node→shard ownership comes
        from the serving station of each bootstrap position.
        """
        if self.router is not None:
            if self._owner is not None:
                raise RuntimeError("bootstrap() may only be called once")
            x = np.ascontiguousarray(positions[:, 0], dtype=np.float64)
            y = np.ascontiguousarray(positions[:, 1], dtype=np.float64)
            owner = self.router.station_shard[self.node_engine.assigner.assign(x, y)]
            table = self.shards[0].server.table
            for k, shard in enumerate(self.shards):
                shard.server.table = table.shard_view(owner, k)
            self._owner = owner
        t = 0.0
        senders = self.fleet.observe(t, positions, velocities)
        pos, vel = np.take(positions, senders, axis=0), np.take(velocities, senders, axis=0)
        self.history.record(t, senders, pos, vel)
        for shard, *report in self._route(senders, pos, vel):
            shard.server.table.ingest(t, *report)

    def _require_bootstrap(self, what: str) -> None:
        if self.router is not None and self._owner is None:
            raise RuntimeError(f"call bootstrap() before {what}()")

    def _route(self, ids: np.ndarray, *columns: np.ndarray | None) -> Iterator[tuple]:
        """``(shard, ids, *columns)`` per shard, each gathered by row to
        the reports that shard gets (a ``None`` column stays ``None``)."""
        if self._owner is None:
            yield self.shards[0], ids, *columns
            return
        owner = self._owner[ids]
        for k, shard in enumerate(self.shards):
            mine = np.flatnonzero(owner == k)
            yield shard, ids[mine], *(
                None if c is None else np.take(c, mine, axis=0) for c in columns
            )

    # ------------------------------------------------------------------
    # Server-side control path
    # ------------------------------------------------------------------

    def adapt(self, positions: np.ndarray, speeds: np.ndarray) -> None:
        """One adaptation of every shard: measure load, set z (with the
        coordinator's budget rebalance in between), recompute + broadcast
        the plan — :meth:`LiraShard.control_step` in two halves."""
        self._require_bootstrap("adapt")
        # Under REPRO_SANITIZE=1 any hidden global-RNG draw in the
        # adaptation path raises instead of silently de-seeding runs.
        with rng_discipline():
            measurements = [shard.observe_load() for shard in self.shards]
            if self.n_shards > 1 and self._adaptive:
                self._rebalance(measurements)
            for k, shard in enumerate(self.shards):
                if shard.network is None:
                    continue
                pos, spd = positions, speeds
                if self._owner is not None:
                    mine = self._owner == k
                    pos, spd = np.compress(mine, positions, axis=0), speeds[mine]
                shard.replan(pos, spd, self.current_time)
        self._plan_installed = True

    def _rebalance(self, measurements: list[LoadMeasurement]) -> None:
        """Re-allocate the global throttle budget across shards.

        Weights are measured arrival shares (falling back to owned-node
        shares when the period saw no arrivals); the
        global budget is the weighted mean of the per-shard THROTLOOP
        outputs and is conserved exactly: the last loaded shard absorbs
        the floating-point remainder so ``Σ b_k == z_global`` to the bit.
        """
        arrivals = np.array([float(m.arrivals) for m in measurements])
        total = arrivals.sum()
        if total > 0:
            weights = arrivals / total
        else:
            assert self._owner is not None
            weights = np.bincount(self._owner, minlength=self.n_shards) / self.n_nodes
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
        """One sampling period: nodes decide, report; servers ingest.

        Returns the number of reports sent.  The plan must have been
        installed (call :meth:`adapt` first).  On a fleet of more than
        :data:`SERIAL_DEVIATION_NODES` nodes the dead-reckoning deviation
        runs on a helper thread while this thread looks up the thresholds
        (:func:`~repro.parallel.run_beside`; in turn on one usable CPU);
        the thread is joined before the sender test, and none outlives
        the call.
        """
        self._require_bootstrap("tick")
        if not self._plan_installed:
            raise RuntimeError("call adapt() before the first tick()")
        # Checked before any state moves: a rejected tick leaves the
        # engine, the fault draws and the clock where they were.
        positions = np.asarray(positions, dtype=np.float64)
        velocities = np.asarray(velocities, dtype=np.float64)
        if positions.shape != (self.n_nodes, 2) or velocities.shape != (self.n_nodes, 2):
            raise ValueError("positions/velocities must have shape (n_nodes, 2)")
        self.current_time = t
        faults = self.faults
        inject = self._inject
        if self._owner is not None:
            self._apply_handoffs()
        active: np.ndarray | None = None
        rate_factor = 1.0
        if inject:
            assert faults is not None
            for shard in self.shards:
                if shard.network is not None:
                    shard.network.deliver_pending(t)
            active = faults.churn_step(self.n_nodes)
            rate_factor = faults.service_factor(t)
        # The deviation reads only the fleet's last-sent models and the
        # positions, not Δ: on a large fleet it runs on a helper thread
        # beside the lookup.
        thresholds, deviation = run_beside(
            partial(self.fleet.deviation, t, positions),
            partial(
                self.node_engine.compute_thresholds,
                positions, active, default=self.config.delta_min,
            ),
            overlap=self.n_nodes > SERIAL_DEVIATION_NODES,
        )
        self.fleet.set_thresholds(thresholds)
        senders = self.fleet.observe(t, positions, velocities, deviation=deviation)
        sender_pos = np.take(positions, senders, axis=0)
        sender_vel = np.take(velocities, senders, axis=0)
        self.history.record(t, senders, sender_pos, sender_vel)
        if inject:
            assert faults is not None
            ids, pos, vel, times = faults.uplink(t, senders, sender_pos, sender_vel)
        else:
            ids, pos, vel, times = senders, sender_pos, sender_vel, None
        for shard, *report in self._route(ids, pos, vel, times):
            shard.ingest(t, *report, dt, rate_factor)
        if faults is not None and not inject:
            counters = faults.counters
            counters.uplink_sent += int(senders.size)
            counters.uplink_delivered += int(senders.size)
        return int(senders.size)

    def _apply_handoffs(self) -> None:
        """Hand each node whose serving station changed shard on the
        previous tick to that station's shard: an owner flip in place,
        which every shard's table view reads at apply time."""
        assert self._owner is not None and self.router is not None
        slots = self.node_engine._station_slot
        dest = self.router.station_shard[slots]
        # Slot -1: not attached yet (before the first tick).
        moved = (dest != self._owner) & (slots >= 0)
        self._owner[moved] = dest[moved]
        self.total_cross_handoffs += int(np.count_nonzero(moved))

    # ------------------------------------------------------------------
    # Queries + introspection
    # ------------------------------------------------------------------

    def evaluate_queries(self, t: float | None = None) -> list[np.ndarray]:
        """Current CQ result sets from the servers' believed positions
        (global ids, ascending).  Every shard's table view reads the one
        table, so one evaluation answers for all the shards."""
        when = self.current_time if t is None else t
        return self.shards[0].server.evaluate_queries(when)

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
        """A snapshot of system-level counters, summed over the shards."""
        networks = [s.network for s in self.shards if s.network is not None]
        staleness = [network.staleness(self.current_time) for network in networks]
        if len(networks) == 1:
            mean_staleness, stale_fraction = staleness[0]
        else:
            # Station-weighted means over the shard networks.
            counts = [len(network.stations) for network in networks]
            mean_staleness, stale_fraction = (
                sum(pair[k] * count for pair, count in zip(staleness, counts))
                / sum(counts)
                for k in (0, 1)
            )
        servers = [shard.server for shard in self.shards]
        faults = self.faults.counters.snapshot() if self.faults is not None else {}
        active = self.faults.active_mask if self.faults is not None else None
        return SystemStats(
            time=self.current_time,
            z=self.current_z,
            queue_length=sum(len(server.queue) for server in servers),
            queue_drops=sum(server.queue.lifetime_dropped for server in servers),
            updates_sent=self.fleet.total_reports,
            updates_processed=sum(server.table.updates_applied for server in servers),
            broadcast_bytes=sum(network.total_broadcast_bytes for network in networks),
            # O(1): a monotonic counter the engine maintains tick by
            # tick, not an O(N) reduction over per-node counters.
            handoffs=self.node_engine.total_handoffs,
            plan_version=max(network.version for network in networks),
            mean_plan_staleness=mean_staleness,
            stale_station_fraction=stale_fraction,
            uplink_sent=faults.get("uplink_sent", 0),
            uplink_lost=faults.get("uplink_lost", 0),
            uplink_delayed=faults.get("uplink_delayed", 0),
            uplink_in_flight=(
                self.faults.uplink_in_flight if self.faults is not None else 0
            ),
            downlink_lost=faults.get("downlink_lost", 0),
            downlink_delayed=faults.get("downlink_delayed", 0),
            admission_drops=sum(server.counts.shed for server in servers),
            updates_discarded=sum(server.table.updates_discarded for server in servers),
            slow_ticks=faults.get("slow_ticks", 0),
            active_nodes=(
                int(active.sum()) if active is not None else self.n_nodes
            ),
            cross_handoffs=self.total_cross_handoffs,
            updates_orphaned=sum(server.table.updates_orphaned for server in servers),
        )
