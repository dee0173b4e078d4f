"""Deterministic, seedable fault injection for the server–network loop.

LIRA's premise is graceful behaviour under adverse conditions, yet a
lossless simulation never exercises the failure modes a real deployment
sees.  This module models them explicitly, as a :class:`FaultInjector`
wrapped around the three seams of the systems loop
(:class:`~repro.server.system.LiraSystem`):

* **uplink** (mobile node → server): position-update messages can be
  lost, delayed (arriving whole ticks later, carrying their original
  report timestamp), or reordered within a delivery batch;
* **downlink** (server → base stations): shedding-plan broadcasts can be
  lost (the station keeps serving its *stale* region subset) or delayed
  (the subset installs at a later tick);
* **server**: transient service-rate dips (a slowdown episode scales the
  processing capacity for a while) and node churn (nodes leave the
  system and rejoin later).

Everything is driven by per-seam :class:`numpy.random.Generator`
streams derived from one seed, so a fault scenario is exactly
reproducible — two runs with the same spec and seed produce identical
message fates, identical counters, and identical system statistics.
The all-zero :class:`FaultSpec` is a true no-op: the injector passes
batches through untouched and draws nothing from any stream, so a
system wired with a null injector behaves bit-identically to one with
no injector at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.counters import Counters

_PROBABILITY_FIELDS = (
    "uplink_loss",
    "uplink_delay",
    "uplink_reorder",
    "downlink_loss",
    "downlink_delay",
    "slowdown_prob",
    "churn_leave",
    "churn_rejoin",
)


@dataclass(frozen=True)
class FaultSpec:
    """Declarative description of one fault scenario.

    All probabilities are per message (uplink), per broadcast
    (downlink), per tick (slowdown), or per node per tick (churn).
    Delay ranges are in seconds; delays are drawn uniformly from them.
    """

    #: Probability each node→server update message is lost in transit.
    uplink_loss: float = 0.0
    #: Probability each surviving update message is delayed.
    uplink_delay: float = 0.0
    #: Delay drawn uniformly from this range (seconds) for delayed updates.
    uplink_delay_range: tuple[float, float] = (10.0, 30.0)
    #: Probability a tick's delivery batch is shuffled out of order.
    uplink_reorder: float = 0.0
    #: Probability each per-station plan broadcast is lost (the station
    #: keeps its previous — stale — region subset).
    downlink_loss: float = 0.0
    #: Probability each surviving plan broadcast is delayed.
    downlink_delay: float = 0.0
    #: Delay drawn uniformly from this range (seconds) for delayed broadcasts.
    downlink_delay_range: tuple[float, float] = (10.0, 30.0)
    #: Per-tick probability that a server slowdown episode starts.
    slowdown_prob: float = 0.0
    #: Service-rate multiplier while a slowdown episode is active.
    slowdown_factor: float = 0.3
    #: Duration (seconds) of a slowdown episode; 0 covers a single tick.
    slowdown_duration: float = 0.0
    #: Per-tick probability an active node leaves (stops reporting).
    churn_leave: float = 0.0
    #: Per-tick probability an absent node rejoins.
    churn_rejoin: float = 0.25

    def __post_init__(self) -> None:
        for name in _PROBABILITY_FIELDS:
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be a probability in [0, 1]")
        for name in ("uplink_delay_range", "downlink_delay_range"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi")
        if not (0.0 < self.slowdown_factor <= 1.0):
            raise ValueError("slowdown_factor must be in (0, 1]")
        if self.slowdown_duration < 0:
            raise ValueError("slowdown_duration must be non-negative")

    @property
    def uplink_enabled(self) -> bool:
        return (
            self.uplink_loss > 0
            or self.uplink_delay > 0
            or self.uplink_reorder > 0
        )

    @property
    def downlink_enabled(self) -> bool:
        return self.downlink_loss > 0 or self.downlink_delay > 0

    @property
    def churn_enabled(self) -> bool:
        return self.churn_leave > 0

    @property
    def is_null(self) -> bool:
        """True when this spec injects no faults at all."""
        return not (
            self.uplink_enabled
            or self.downlink_enabled
            or self.churn_enabled
            or self.slowdown_prob > 0
        )


#: Downlink fates returned by :meth:`FaultInjector.downlink_fate`.
DELIVER = "deliver"
LOST = "lost"
DELAYED = "delayed"


class FaultInjector:
    """Seedable fault source for every seam of the systems loop.

    One injector serves one :class:`~repro.server.system.LiraSystem`.
    Each seam draws from its own RNG stream (derived from ``seed``), so
    enabling downlink faults does not perturb the uplink's random
    choices — fault dimensions compose without cross-contamination.
    """

    def __init__(self, spec: FaultSpec | None = None, seed: int = 0) -> None:
        self.spec = spec or FaultSpec()
        self.seed = seed
        root = np.random.SeedSequence(seed)
        uplink_seq, downlink_seq, server_seq, churn_seq = root.spawn(4)
        self._uplink_rng = np.random.default_rng(uplink_seq)
        self._downlink_rng = np.random.default_rng(downlink_seq)
        self._server_rng = np.random.default_rng(server_seq)
        self._churn_rng = np.random.default_rng(churn_seq)
        #: Cumulative fault accounting, surfaced through ``SystemStats``.
        self.counters = Counters(
            "uplink_sent", "uplink_lost", "uplink_delayed", "uplink_delivered",
            "uplink_reordered_batches", "downlink_broadcasts", "downlink_lost",
            "downlink_delayed", "slow_ticks", "departures", "rejoins",
        )
        #: In-flight delayed uplink messages, struct-of-arrays:
        #: (arrival_t, seq, send_t, node_id, position, velocity).
        #: Maturity order is (arrival_t, seq) ascending — identical to
        #: the min-heap of per-message tuples this buffer replaces.
        self._flight_arrival = np.empty(0, dtype=np.float64)
        self._flight_seq = np.empty(0, dtype=np.int64)
        self._flight_send_t = np.empty(0, dtype=np.float64)
        self._flight_ids = np.empty(0, dtype=np.int64)
        self._flight_pos = np.empty((0, 2), dtype=np.float64)
        self._flight_vel = np.empty((0, 2), dtype=np.float64)
        self._seq = 0
        self._slow_until = -np.inf
        self._active: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Uplink: node -> server update messages
    # ------------------------------------------------------------------

    def uplink(
        self,
        t: float,
        node_ids: np.ndarray,
        positions: np.ndarray,
        velocities: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """Transmit one tick's reports; return what arrives by time ``t``.

        Returns ``(node_ids, positions, velocities, times)`` of the
        messages delivered this tick — the surviving non-delayed part of
        the new batch plus any previously delayed messages whose arrival
        time has matured.  ``times`` carries each message's original
        *report* timestamp (``None`` means "all at ``t``", the lossless
        fast path).
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        self.counters.uplink_sent += int(node_ids.size)
        spec = self.spec
        if not spec.uplink_enabled:
            self.counters.uplink_delivered += int(node_ids.size)
            return node_ids, positions, velocities, None

        n = int(node_ids.size)
        keep = np.ones(n, dtype=bool)
        if n and spec.uplink_loss > 0:
            lost = self._uplink_rng.random(n) < spec.uplink_loss
            self.counters.uplink_lost += int(lost.sum())
            keep &= ~lost
        delayed = np.zeros(n, dtype=bool)
        if n and spec.uplink_delay > 0:
            delayed = keep & (self._uplink_rng.random(n) < spec.uplink_delay)
            n_delayed = int(delayed.sum())
            self.counters.uplink_delayed += n_delayed
            lo, hi = spec.uplink_delay_range
            arrivals = t + self._uplink_rng.uniform(lo, hi, size=n_delayed)
            if n_delayed:
                held = np.flatnonzero(delayed)
                self._flight_arrival = np.concatenate(
                    [self._flight_arrival, arrivals]
                )
                self._flight_seq = np.concatenate(
                    [
                        self._flight_seq,
                        np.arange(self._seq, self._seq + n_delayed, dtype=np.int64),
                    ]
                )
                self._flight_send_t = np.concatenate(
                    [self._flight_send_t, np.full(n_delayed, t, dtype=np.float64)]
                )
                self._flight_ids = np.concatenate(
                    [self._flight_ids, node_ids[held]]
                )
                self._flight_pos = np.concatenate(
                    [self._flight_pos, np.asarray(positions, dtype=np.float64)[held]]
                )
                self._flight_vel = np.concatenate(
                    [self._flight_vel, np.asarray(velocities, dtype=np.float64)[held]]
                )
                self._seq += n_delayed
        immediate = keep & ~delayed

        mature = self._flight_arrival <= t
        if mature.any():
            order = np.lexsort(
                (self._flight_seq[mature], self._flight_arrival[mature])
            )
            matured_ids = self._flight_ids[mature][order]
            matured_pos = self._flight_pos[mature][order]
            matured_vel = self._flight_vel[mature][order]
            matured_times = self._flight_send_t[mature][order]
            still = ~mature
            self._flight_arrival = self._flight_arrival[still]
            self._flight_seq = self._flight_seq[still]
            self._flight_send_t = self._flight_send_t[still]
            self._flight_ids = self._flight_ids[still]
            self._flight_pos = self._flight_pos[still]
            self._flight_vel = self._flight_vel[still]
        else:
            matured_ids = np.empty(0, dtype=np.int64)
            matured_pos = np.empty((0, 2), dtype=np.float64)
            matured_vel = np.empty((0, 2), dtype=np.float64)
            matured_times = np.empty(0, dtype=np.float64)

        ids = np.concatenate([matured_ids, node_ids[immediate]])
        pos = np.concatenate(
            [matured_pos, np.asarray(positions, dtype=np.float64)[immediate]]
        )
        vel = np.concatenate(
            [matured_vel, np.asarray(velocities, dtype=np.float64)[immediate]]
        )
        times = np.concatenate(
            [matured_times, np.full(int(immediate.sum()), t, dtype=np.float64)]
        )
        if (
            ids.size > 1
            and spec.uplink_reorder > 0
            and self._uplink_rng.random() < spec.uplink_reorder
        ):
            order = self._uplink_rng.permutation(ids.size)
            ids, pos, vel, times = ids[order], pos[order], vel[order], times[order]
            self.counters.uplink_reordered_batches += 1
        self.counters.uplink_delivered += int(ids.size)
        return ids, pos, vel, times

    @property
    def uplink_in_flight(self) -> int:
        """Delayed update messages not yet delivered."""
        return int(self._flight_ids.size)

    # ------------------------------------------------------------------
    # Downlink: server -> base-station plan broadcasts
    # ------------------------------------------------------------------

    def downlink_fate(self, station_id: int) -> tuple[str, float]:
        """Fate of one per-station plan broadcast.

        Returns ``(DELIVER, 0.0)``, ``(LOST, 0.0)``, or ``(DELAYED, d)``
        with ``d`` the delivery delay in seconds.
        """
        self.counters.downlink_broadcasts += 1
        spec = self.spec
        if not spec.downlink_enabled:
            return DELIVER, 0.0
        if spec.downlink_loss > 0 and self._downlink_rng.random() < spec.downlink_loss:
            self.counters.downlink_lost += 1
            return LOST, 0.0
        if spec.downlink_delay > 0 and self._downlink_rng.random() < spec.downlink_delay:
            lo, hi = spec.downlink_delay_range
            self.counters.downlink_delayed += 1
            return DELAYED, float(self._downlink_rng.uniform(lo, hi))
        return DELIVER, 0.0

    # ------------------------------------------------------------------
    # Server slowdowns
    # ------------------------------------------------------------------

    def service_factor(self, t: float) -> float:
        """Service-rate multiplier for the tick at time ``t``."""
        spec = self.spec
        if spec.slowdown_prob <= 0:
            return 1.0
        if t < self._slow_until:
            self.counters.slow_ticks += 1
            return spec.slowdown_factor
        if self._server_rng.random() < spec.slowdown_prob:
            self._slow_until = t + spec.slowdown_duration
            self.counters.slow_ticks += 1
            return spec.slowdown_factor
        return 1.0

    # ------------------------------------------------------------------
    # Node churn
    # ------------------------------------------------------------------

    def churn_step(self, n_nodes: int) -> np.ndarray | None:
        """Advance churn one tick; returns the active mask (or ``None``).

        ``None`` means churn is disabled and every node is active — the
        caller can skip masking entirely.
        """
        spec = self.spec
        if not spec.churn_enabled:
            return None
        if self._active is None or self._active.size != n_nodes:
            self._active = np.ones(n_nodes, dtype=bool)
        draws = self._churn_rng.random(n_nodes)
        leaving = self._active & (draws < spec.churn_leave)
        rejoining = ~self._active & (draws < spec.churn_rejoin)
        self.counters.departures += int(leaving.sum())
        self.counters.rejoins += int(rejoining.sum())
        self._active = (self._active & ~leaving) | rejoining
        return self._active

    @property
    def active_mask(self) -> np.ndarray | None:
        """The current churn mask (``None`` when churn is disabled)."""
        return self._active


@dataclass(frozen=True)
class _Lossless:
    """Marker for documentation: the default channel is simply ``None``.

    The systems loop treats ``faults=None`` (or a null-spec injector) as
    a perfect channel; this sentinel exists so call sites can spell the
    intent explicitly as ``LOSSLESS``.
    """

    name: str = field(default="lossless")


#: The perfect channel: no loss, no delay, no reordering, no churn.
LOSSLESS = _Lossless()
