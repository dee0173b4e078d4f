"""The shard: the server-side slice of the LIRA architecture.

A :class:`LiraShard` is what the paper's architecture diagram stacks
*server-side* over one set of base stations — a bounded-queue CQ server
applying the reports of the nodes those stations serve to the believed
positions, the GRIDREDUCE/GREEDYINCREMENT shedder with its THROTLOOP,
and the station network with its plan subsets.  The nodes themselves are
not a shard's: LIRA is source-actuated, so a node decides its Δ from
whatever subset its serving station broadcast, whichever shard owns that
station.  :class:`~repro.server.system.LiraSystem` runs the one node
population and coordinates ``n_shards`` of these slices (one shard
owning the whole population is the degenerate partition); with more,
each shard's node table is a view of one table over the whole population
(:meth:`~repro.index.NodeTable.shard_view`) that applies only the
reports of nodes the shard owns when they are applied.
:class:`~repro.service.LiraService` fronts one whose nodes are remote
clients.

Two things are defined here once and used by every deployment:

* the **ingest** (:meth:`LiraShard.ingest`) — one tick's reports into
  the bounded queue, substepped with service;
* the **control step** (:meth:`LiraShard.control_step`) — close the
  load-measurement period, step THROTLOOP, take the plan the shard's
  policy serves, and install it: skipped when unchanged, as a delta
  when the geometry held, in full otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.core import LiraConfig, LiraLoadShedder, StatisticsGrid
from repro.core.plan import PlanDelta, SheddingPlan
from repro.core.reduction import ReductionFunction
from repro.faults import FaultInjector
from repro.geo import Rect
from repro.queries import RangeQuery
from repro.sanitize import rng_discipline
from repro.server.base_station import BaseStation
from repro.server.cq_server import LoadMeasurement, MobileCQServer
from repro.server.protocol import BaseStationNetwork, RegionSubset
from repro.shedding import PolicyFactory, policy_factory

#: Arrival/service interleavings per tick: a sampling period's reports
#: reach the bounded queue spread over the period, not as one burst that
#: would overflow it before any service happened.
RECEIVE_SUBSTEPS = 10


class ShardDirectory:
    """Live merged station→subset view across the per-shard networks.

    Satisfies the node engine's ``SubsetProvider`` protocol: the one
    engine resolves the subset of *any* station, whichever shard's
    network installed it — the partitioned twin of one global network.
    """

    def __init__(self, stations: list[BaseStation], shards: list["LiraShard"]) -> None:
        self.stations = stations
        self._network_by_station = {
            station.station_id: shard.network
            for shard in shards
            if shard.network is not None
            for station in shard.stations
        }

    def subset_or_none(self, station_id: int) -> RegionSubset | None:
        network = self._network_by_station.get(station_id)
        if network is None:
            return None
        return network.subset_or_none(station_id)


class LiraShard:
    """One shard's server-side slice of the deployment.

    Args:
        stations: the base stations this shard owns (possibly none).
        n_nodes: the *global* population size.
        policy: a policy name or factory
            (:func:`~repro.shedding.policy_factory`), building the shard's
            plan source from its shedder (LIRA's is the shedder itself).
        policy_seed: seed of the admission lottery, drawn when the
            policy admits less than every arrival.
        downlink: fault injector for this shard's plan broadcasts.
    """

    def __init__(
        self,
        shard_id: int,
        stations: list[BaseStation],
        bounds: Rect,
        n_nodes: int,
        queries: list[RangeQuery],
        reduction: ReductionFunction,
        config: LiraConfig,
        service_rate: float,
        queue_capacity: int,
        adaptive_throttle: bool,
        policy: str | PolicyFactory,
        policy_seed: int,
        incremental: bool,
        downlink: FaultInjector | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.stations = stations
        self.bounds = bounds
        self.n_nodes = n_nodes
        self.config = config
        self.network = (
            BaseStationNetwork(stations, downlink=downlink) if stations else None
        )
        self.server = MobileCQServer(
            bounds,
            n_nodes,
            queries,
            service_rate=service_rate,
            queue_capacity=queue_capacity,
        )
        self.shedder = LiraLoadShedder(
            config, reduction, queue_capacity=queue_capacity, incremental=incremental
        )
        if adaptive_throttle:
            self.shedder.use_adaptive_throttle()
        #: The plan source; the shedder keeps setting z whatever it is.
        self.policy = policy_factory(policy)(self.shedder, reduction)
        # Shard 0 draws the one-shard deployment's admission stream;
        # other shards get independent deterministic streams.
        self._policy_rng = np.random.default_rng(
            policy_seed if shard_id == 0 else [policy_seed, shard_id]
        )
        #: The plan the network currently serves (``None`` before the
        #: first install); what the next control step diffs against.
        self.plan: SheddingPlan | None = None

    # ------------------------------------------------------------------
    # Control step
    # ------------------------------------------------------------------

    def observe_load(self) -> LoadMeasurement:
        """Close the load-measurement period and step THROTLOOP on it."""
        measurement = self.server.take_load_measurement()
        if measurement.period > 0:
            # ThrotLoop.step() tolerates a stalled μ <= 0 measurement
            # (collapse to z_floor under load, reopen when idle).
            self.shedder.observe_load(
                measurement.arrival_rate, self.server.service_rate
            )
        return measurement

    def replan(
        self, positions: np.ndarray | None, speeds: np.ndarray | None, t: float
    ) -> tuple[SheddingPlan, PlanDelta | None, dict[int, RegionSubset] | None]:
        """Take the policy's plan for a node snapshot and install it.

        ``positions=None`` (nothing known yet) gets the one-region plan
        at Δ⊢.  Returns ``(plan, delta, delivered)``: in incremental mode
        over a fault-free downlink, a plan whose content is unchanged
        (the policy returned the same object) is not installed at all —
        ``delivered`` is ``None`` — and a same-geometry successor ships as
        a per-region ``delta``.  Faulty downlinks always get the full
        push: the periodic re-broadcast is what lets stations recover
        from lost plan broadcasts.
        """
        assert self.network is not None
        if positions is None:
            plan = SheddingPlan.uniform(self.bounds, self.config.delta_min)
        else:
            grid = StatisticsGrid.from_snapshot(
                self.bounds,
                self.policy.alpha,
                positions,
                speeds,
                self.server.queries,
            )
            plan = self.policy.adapt(grid, self.shedder.current_z)
        previous, delta = self.plan, None
        faulty = self.network.downlink is not None
        if self.shedder.incremental and not faulty and previous is not None:
            if previous is plan:
                return plan, None, None
            delta = previous.diff(plan)
        delivered = self.network.install_plan(plan, t=t, delta=delta)
        self.plan = plan
        return plan, delta, delivered

    def control_step(
        self, positions: np.ndarray | None, speeds: np.ndarray | None, t: float
    ) -> tuple[SheddingPlan, PlanDelta | None, dict[int, RegionSubset] | None]:
        """One adaptation: :meth:`observe_load`, then :meth:`replan`.

        A coordinator that rebalances the throttle budget across shards
        calls the two halves itself, around the rebalance.
        """
        # Under REPRO_SANITIZE=1 any hidden global-RNG draw in the
        # adaptation path raises instead of silently de-seeding runs.
        with rng_discipline():
            self.observe_load()
            return self.replan(positions, speeds, t)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def ingest(
        self,
        t: float,
        ids: np.ndarray,
        positions: np.ndarray,
        velocities: np.ndarray,
        times: np.ndarray | None,
        dt: float,
        rate_factor: float = 1.0,
    ) -> None:
        """One tick's reports from this shard's nodes into its server.

        ``ids`` are global node ids; ``times`` the uplink's per-report
        send times (``None``: every report is from ``t``).  The period's
        reports reach the bounded queue in :data:`RECEIVE_SUBSTEPS`
        chunks, each followed by its share of service.  A lifted queue
        (every report fits, and one substep's service drains the queue)
        takes them in one chunk: no report can be dropped or wait, so the
        substeps would change nothing.
        """
        server, queue = self.server, self.server.queue
        # Random Drop admits a random fraction z of arrivals at the server.
        admit = self.policy.admission_fraction()
        substeps = RECEIVE_SUBSTEPS
        if times is None and len(queue) + ids.size <= queue.capacity <= (
            server.service_rate * rate_factor * dt / RECEIVE_SUBSTEPS
        ):
            substeps = 1
        # Slice-based chunking with np.array_split's size rule (the first
        # n % k chunks get one extra element): slicing yields views, so
        # substepping never copies the report arrays.
        base, extra = divmod(int(ids.size), substeps)
        lo = 0
        for c in range(substeps):
            hi = lo + base + (1 if c < extra else 0)
            chunk = slice(lo, hi)
            lo = hi
            server.receive_reports(
                t,
                ids[chunk],
                positions[chunk],
                velocities[chunk],
                times=times[chunk] if times is not None else None,
                admit_fraction=admit,
                admit_rng=self._policy_rng if admit < 1.0 else None,
            )
            server.process(dt / substeps, rate_factor=rate_factor)
