"""Plan-dissemination protocol: server → base stations → mobile nodes.

Implements the second and third layers of the LIRA architecture
(Section 2.2):

* the server installs a new :class:`~repro.core.plan.SheddingPlan` into a
  :class:`BaseStationNetwork`, which computes, per base station, the
  subset of shedding regions intersecting its coverage area;
* base stations broadcast their subset (accounted in bytes) to the
  mobile nodes they serve, and hand the subset to nodes arriving via
  hand-off;
* a mobile node stores only its current station's subset and
  determines the update throttler to use *locally*; the node side runs
  as struct-of-arrays state in :mod:`repro.server.node_engine` (the
  per-node form with the paper's tiny 5×5 grid index is the test
  oracle, ``tests/oracles/system.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo import Point
from repro.core.plan import PlanDelta, SheddingPlan, SheddingRegion
from repro.server.base_station import BYTES_PER_REGION, BaseStation, coverage_mask


@dataclass(frozen=True)
class RegionSubset:
    """The shedding-region subset one base station broadcasts."""

    station_id: int
    regions: tuple[SheddingRegion, ...]
    version: int

    @property
    def payload_bytes(self) -> int:
        return len(self.regions) * BYTES_PER_REGION


class BaseStationNetwork:
    """The wired middle layer: stations, subsets, and broadcast accounting.

    ``downlink`` optionally injects faults into the per-station plan
    broadcasts (see :class:`repro.faults.FaultInjector`): a lost
    broadcast leaves the station serving its previous — stale — subset,
    a delayed one installs at a later tick via :meth:`deliver_pending`.
    Without a downlink the network is the paper's perfect wired layer.
    """

    def __init__(self, stations: list[BaseStation], downlink=None) -> None:
        if not stations:
            raise ValueError("at least one base station is required")
        self.stations = stations
        self.downlink = downlink
        self._subsets: dict[int, RegionSubset] = {}
        self.version = 0
        self.total_broadcast_bytes = 0
        self.total_broadcasts = 0
        #: Pending delayed broadcasts: station id -> (deliver_t, subset).
        self._pending: dict[int, tuple[float, RegionSubset]] = {}
        #: Time each plan version was generated (staleness accounting);
        #: only versions a station serves or awaits, see install_plan.
        self._version_times: dict[int, float] = {}
        #: Coverage cache: re-installing the *same* plan object — or any
        #: plan with identical region geometry — reuses the per-station
        #: region index arrays instead of re-running the
        #: O(stations x regions) coverage intersection.  Keyed by
        #: identity; the strong reference keeps the id stable.
        self._coverage_plan: SheddingPlan | None = None
        self._coverage_indices: list[np.ndarray] = []
        self._coverage_members: list[tuple[SheddingRegion, ...]] = []
        #: The latest plan version whose *content* each station serves.
        #: Differs from its subset's version after a delta install that
        #: skipped the station (content already current, no airtime).
        self._station_versions: dict[int, int] = {}
        #: Epoch of the last installed plan; guards delta installs.
        self._installed_epoch: int | None = None

    def install_plan(
        self,
        plan: SheddingPlan,
        t: float = 0.0,
        delta: PlanDelta | None = None,
    ) -> dict[int, RegionSubset]:
        """Compute and broadcast every station's region subset.

        Returns the subsets delivered immediately (keyed by station id)
        and accumulates the wireless messaging cost.  Broadcast bytes
        count every transmission attempt — a lost broadcast still spent
        the airtime.

        ``delta`` (optional) is ``previous_plan.diff(plan)`` for the
        plan currently installed.  When it is usable — epochs line up
        and the downlink is fault-free — only stations whose coverage
        intersects a changed region are re-broadcast, and each pays
        airtime for its changed regions alone; untouched stations stay
        current without a transmission.  An unusable delta silently
        falls back to the full push, so callers may always offer one.
        """
        self._refresh_coverage(plan)
        self.version += 1
        # Forget the versions no station serves or awaits any more, so a
        # long-lived network holds at most 2·|stations| + 1 of them.
        held = list(self._station_versions.values())
        held += [subset.version for _, subset in self._pending.values()]
        self._version_times = {v: self._version_times[v] for v in held}
        self._version_times[self.version] = t
        if (
            delta is not None
            and self.downlink is None
            and self._installed_epoch is not None
            and delta.base_epoch == self._installed_epoch
            and delta.epoch == plan.epoch
            and delta.num_regions == len(plan.regions)
        ):
            return self._install_delta(plan, delta)
        self._installed_epoch = plan.epoch
        delivered: dict[int, RegionSubset] = {}
        for station, members in zip(self.stations, self._coverage_members):
            subset = RegionSubset(
                station_id=station.station_id,
                regions=members,
                version=self.version,
            )
            self.total_broadcast_bytes += subset.payload_bytes
            self.total_broadcasts += 1
            if self.downlink is not None:
                from repro.faults.channel import DELAYED, LOST

                fate, delay = self.downlink.downlink_fate(station.station_id)
                if fate == LOST:
                    continue
                if fate == DELAYED:
                    self._pending[station.station_id] = (t + delay, subset)
                    continue
            self._subsets[station.station_id] = subset
            self._pending.pop(station.station_id, None)
            self._station_versions[station.station_id] = self.version
            delivered[station.station_id] = subset
        return delivered

    def _refresh_coverage(self, plan: SheddingPlan) -> None:
        """(Re)compute the per-station coverage cache for ``plan``.

        Same plan object: no work.  Same geometry (delta/raster-reuse
        plans): keep the index arrays, rebuild the member tuples in
        O(Σ|subset|).  Otherwise one vectorized stations × regions
        intersection pass.
        """
        if self._coverage_plan is plan:
            return
        if self._coverage_plan is None or not plan.same_geometry(
            self._coverage_plan
        ):
            mask = coverage_mask(self.stations, plan)
            self._coverage_indices = [
                np.flatnonzero(mask[row]) for row in range(len(self.stations))
            ]
        self._coverage_members = [
            tuple(plan.regions[i] for i in indices)
            for indices in self._coverage_indices
        ]
        self._coverage_plan = plan

    def _install_delta(
        self, plan: SheddingPlan, delta: PlanDelta
    ) -> dict[int, RegionSubset]:
        """Delta install: re-broadcast only stations seeing a change."""
        self._installed_epoch = plan.epoch
        changed = np.zeros(len(plan.regions), dtype=bool)
        changed[[index for index, *_ in delta.changes]] = True
        delivered: dict[int, RegionSubset] = {}
        for station, indices, members in zip(
            self.stations, self._coverage_indices, self._coverage_members
        ):
            station_id = station.station_id
            changed_count = int(changed[indices].sum()) if len(indices) else 0
            if changed_count == 0:
                # Content identical to the new version: current without
                # spending any airtime.
                self._station_versions[station_id] = self.version
                continue
            subset = RegionSubset(
                station_id=station_id,
                regions=members,
                version=self.version,
            )
            self.total_broadcast_bytes += changed_count * BYTES_PER_REGION
            self.total_broadcasts += 1
            self._subsets[station_id] = subset
            self._station_versions[station_id] = self.version
            delivered[station_id] = subset
        return delivered

    def deliver_pending(self, t: float) -> int:
        """Install delayed broadcasts whose delivery time has matured."""
        if not self._pending:
            return 0
        installed = 0
        for station_id in [
            sid for sid, (due, _) in self._pending.items() if due <= t
        ]:
            _, subset = self._pending.pop(station_id)
            current = self._subsets.get(station_id)
            # An old delayed broadcast must not clobber a newer install.
            if current is None or subset.version > current.version:
                self._subsets[station_id] = subset
                self._station_versions[station_id] = max(
                    subset.version, self._station_versions.get(station_id, 0)
                )
                installed += 1
        return installed

    def staleness(self, t: float) -> tuple[float, float]:
        """Plan-staleness summary at time ``t``.

        Returns ``(mean_age, stale_fraction)``: the mean age in seconds
        of the plan version each station currently serves (a station
        that never received any broadcast counts age ``t``), and the
        fraction of stations serving something older than the latest
        version.
        """
        if self.version == 0:
            return 0.0, 0.0
        ages, stale = [], 0
        for station in self.stations:
            # The *content* version the station serves: a delta install
            # that skipped the station left its subset object untouched
            # but its content is the newer version's.
            version = self._station_versions.get(station.station_id)
            if version is None:
                ages.append(t)
                stale += 1
                continue
            ages.append(t - self._version_times[version])
            if version != self.version:
                stale += 1
        return float(np.mean(ages)), stale / len(self.stations)

    def station_for(self, x: float, y: float) -> BaseStation:
        """The station serving a position: nearest covering, else nearest.

        Real deployments always attach to *some* station; coverage gaps
        at placement-lattice seams fall back to the nearest center.
        """
        p = Point(x, y)
        covering = [s for s in self.stations if s.covers(p)]
        pool = covering or self.stations
        return min(pool, key=lambda s: s.center.distance_to(p))

    def subset_for_station(self, station_id: int) -> RegionSubset:
        """The current subset of one station (hand-off download)."""
        if station_id not in self._subsets:
            raise KeyError(
                f"station {station_id} has no subset; install a plan first"
            )
        return self._subsets[station_id]

    def subset_or_none(self, station_id: int) -> RegionSubset | None:
        """Like :meth:`subset_for_station`, but ``None`` when the station
        has never received a broadcast (lost on a faulty downlink)."""
        return self._subsets.get(station_id)
