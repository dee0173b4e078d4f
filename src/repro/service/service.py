"""The live asyncio façade over a LIRA deployment.

:class:`LiraService` fronts one :class:`~repro.server.shard.LiraShard`
— the same slice the systems loop coordinates:
:class:`~repro.server.cq_server.MobileCQServer` (bounded queue + node
table), :class:`~repro.core.shedder.LiraLoadShedder` (GRIDREDUCE +
GREEDYINCREMENT + THROTLOOP), and the
:class:`~repro.server.protocol.BaseStationNetwork` — behind a socket
protocol, so real concurrent clients (the shard's node side) can drive
it under wall-clock load instead of a lockstep tick loop.  Three concerns run decoupled, exactly
as the paper's architecture separates them:

* **ingest** — clients stream ``ingest`` frames of position reports;
  the server enqueues them into the bounded queue and acknowledges each
  frame *after its admitted reports have been applied* to the node
  table ("ack-after-apply"), so a measured ingest latency includes the
  queue wait that overload actually causes;
* **service pump** — the queue is granted ``μ·dt`` of processing
  capacity per real elapsed ``dt`` since the last pump, and acks whose
  reports have drained are completed, both when an ingest frame arrives
  (so spare capacity acks it in the same dispatch) and on a periodic
  timer's ticks (which drain a backlog and sample the optional
  :class:`~repro.faults.FaultInjector` slowdown seam).  The timer sleeps
  until a tick can complete an ack; every reader of the server first
  replays the ticks it skipped, so an idle service does not wake;
* **adaptation** — a periodic task runs the shard's control step
  (:meth:`~repro.server.shard.LiraShard.control_step`: close a
  load-measurement period, step THROTLOOP, recompute the shedding plan,
  install it into the station network) on the *believed* node state,
  and pushes the result to every subscribed client.  :meth:`LiraService.start`
  runs the first step before it binds, so a listening service is serving
  a plan and a new subscriber's first frame is one.

Every timestamp flows through the :data:`repro.timing.Clock` seam —
:func:`repro.timing.monotonic` in production (comparable across
processes on Linux), :class:`repro.timing.ManualClock` in tests — so
the service itself never reads the wall clock (REP002).

The policy is a name in :data:`repro.shedding.POLICIES`, as for
:class:`~repro.server.system.LiraSystem`: the shard installs the plan
it serves, so clients shed at the *sources*.  ``"random-drop"`` is the
paper's uncontrolled regime — a one-region plan at Δ⊢ (no source
throttling) with overload handled by queue-overflow dropping alone:
ingest applies reports without the admission lottery.
"""

from __future__ import annotations

import asyncio
import logging
from collections import deque
from dataclasses import dataclass
from typing import Any, Coroutine, cast

import numpy as np

from repro import sanitize, timing
from repro.core import LiraConfig
from repro.core.plan import PlanDelta, SheddingPlan
from repro.core.reduction import AnalyticReduction, ReductionFunction
from repro.counters import Counters
from repro.faults import FaultInjector, FaultSpec
from repro.geo import Rect
from repro.queries import QueryDistribution, RangeQuery, generate_workload
from repro.server.base_station import place_uniform_stations
from repro.server.shard import LiraShard
from repro.service.framing import Frame, FrameError, cut_frame, encode_frame
from repro.shedding import policy_factory

logger = logging.getLogger(__name__)

__all__ = ["IngestResult", "LiraService", "ServiceConfig"]

#: Seconds between the timer's ticks: short against the SLO a deferred
#: ack waits out.  It wakes only at a tick that can complete an ack.
PUMP_PERIOD = 0.005
#: THROTLOOP target ρ.  The paper's 1−1/B only *stabilizes* queue
#: length; a latency SLO needs sustained headroom to drain backlog.
UTILIZATION_TARGET = 0.8
#: EWMA weight on utilization measurements: the fleet reacts to a new
#: plan with about one tick of lag, so the raw control law limit cycles
#: around the target; smoothing damps it.
THROTTLE_SMOOTHING = 0.5
#: Unread bytes a subscriber's transport may hold before plan pushes to
#: it are withheld.  A 100-region plan frame is ≈ 10 KB, so a reader that
#: is merely some pushes behind loses nothing, while one that stopped
#: reading costs the process a bounded buffer instead of every plan
#: since: a connection's flow control holds back only its own replies.
SEND_BUDGET_BYTES = 1 << 20
#: Bytes a connection's receive buffer starts with, what an idle peer
#: costs.  It doubles as a frame that fills it arrives, and is reused.
RECV_BUFFER_BYTES = 1 << 12
#: An emptied receive buffer larger than this drops back to
#: ``RECV_BUFFER_BYTES``, so no peer keeps more between its frames.
RECV_KEEP_BYTES = 1 << 20


@dataclass(frozen=True)
class ServiceConfig:
    """Declarative scenario for one service process.

    Everything a :class:`LiraService` needs is derived from these
    scalars (plus a seed), so a load generator in another process can
    reconstruct the matching scenario from the same values — the
    monitoring bounds and query workload must agree on both sides.
    """

    side: float = 10_000.0
    n_nodes: int = 400
    n_queries: int = 20
    query_side: float = 1_500.0
    workload_seed: int = 7
    service_rate: float = 1_500.0
    queue_capacity: int = 600
    policy: str = "lira"
    adapt_period: float = 0.5
    station_radius: float = 4_000.0
    l: int = 13
    alpha: int = 16
    delta_min: float = 5.0
    delta_max: float = 100.0
    #: Server-slowdown chaos (FaultInjector seam); prob 0 disables.
    slowdown_prob: float = 0.0
    slowdown_factor: float = 0.3
    slowdown_duration: float = 0.0

    def __post_init__(self) -> None:
        policy_factory(self.policy)  # an unknown name raises ValueError
        if self.side <= 0:
            raise ValueError("side must be positive")
        if self.adapt_period <= 0:
            raise ValueError("adapt_period must be positive")

    @property
    def bounds(self) -> Rect:
        return Rect(0.0, 0.0, self.side, self.side)

    def lira_config(self) -> LiraConfig:
        return LiraConfig(
            l=self.l,
            alpha=self.alpha,
            delta_min=self.delta_min,
            delta_max=self.delta_max,
        )

    def queries(self) -> list[RangeQuery]:
        """The scenario's query workload (pure function of the config)."""
        return generate_workload(
            self.bounds,
            self.n_queries,
            self.query_side,
            distribution=QueryDistribution.RANDOM,
            seed=self.workload_seed,
        )

    def faults(self) -> FaultInjector | None:
        if self.slowdown_prob <= 0:
            return None
        spec = FaultSpec(
            slowdown_prob=self.slowdown_prob,
            slowdown_factor=self.slowdown_factor,
            slowdown_duration=self.slowdown_duration,
        )
        return FaultInjector(spec, seed=0)

    def build(self, clock: timing.Clock = timing.monotonic) -> "LiraService":
        reduction = AnalyticReduction(self.delta_min, self.delta_max)
        return LiraService(
            bounds=self.bounds,
            n_nodes=self.n_nodes,
            queries=self.queries(),
            reduction=reduction,
            config=self.lira_config(),
            service_rate=self.service_rate,
            queue_capacity=self.queue_capacity,
            policy=self.policy,
            adapt_period=self.adapt_period,
            station_radius=self.station_radius,
            faults=self.faults(),
            clock=clock,
        )


@dataclass(frozen=True)
class IngestResult:
    """Outcome of applying one ingest frame to the server.

    ``mark`` is the queue's ``lifetime_enqueued`` reading after the
    frame's reports were offered; the frame counts as *applied* once
    ``lifetime_dequeued`` reaches it (FIFO makes the comparison exact).
    ``None`` means nothing was admitted, so the ack owes no queue wait.
    """

    admitted: int
    dropped: int
    queue_length: int
    mark: int | None


@dataclass
class _PendingAck:
    """An ingest ack deferred until the queue drains past ``mark``."""

    writer: asyncio.WriteTransport
    meta: dict
    mark: int


@dataclass
class _Subscriber:
    """One plan-push channel: a connection that sent ``subscribe``."""

    writer: asyncio.WriteTransport
    station_id: int | None = None
    #: Epoch of the last plan content this subscriber received — a delta
    #: frame is only sent to subscribers sitting at its base epoch;
    #: everyone else gets a full-plan resync.  ``None`` (nothing yet, or a
    #: push withheld) also keeps a station subscriber from being skipped
    #: as unchanged.
    epoch: int | None = None


#: The arrays of an ingest frame and the shape of one report in each;
#: ``times`` is optional.
_INGEST_ARRAYS = {"node_ids": (), "positions": (2,), "velocities": (2,), "times": ()}


def _ingest_fault(arrays: dict[str, np.ndarray], n_nodes: int) -> tuple[str, str] | None:
    """``(reason, message)`` for the first fault in an ingest payload.

    The arrays are views over bytes a client sent: anything that would
    poison the node table (non-finite values), raise inside it (ids out
    of range), need a coercing copy, or ride along pinned in memory (an
    unknown array) is refused before the server sees the batch.
    """
    missing = [name for name in _INGEST_ARRAYS if name != "times" and name not in arrays]
    if missing:
        return "missing-array", f"ingest missing array {missing[0]!r}"
    unknown = sorted(arrays.keys() - _INGEST_ARRAYS.keys())
    if unknown:
        return "unknown-array", f"ingest carries unknown array {unknown[0]!r}"
    ids = arrays["node_ids"]
    if ids.dtype.kind not in "iu":
        return "bad-dtype", "ingest node_ids must be integers"
    for name, array in arrays.items():
        if array.shape != (ids.size, *_INGEST_ARRAYS[name]):
            return "bad-shape", "ingest array shape mismatch"
        if array is ids:
            continue
        if array.dtype != np.float64:
            return "bad-dtype", f"ingest {name} must be float64"
        if not np.isfinite(array).all():
            return "non-finite", f"ingest {name} has non-finite values"
    if ids.size and not (0 <= ids.min() and ids.max() < n_nodes):
        return "id-out-of-range", f"ingest node_ids outside [0, {n_nodes})"
    return None


class LiraService:
    """One live LIRA server endpoint (see the module docstring).

    The constructor takes fully built components so tests can inject a
    :class:`~repro.timing.ManualClock` and drive :meth:`apply_ingest` /
    :meth:`adapt_once` synchronously without any socket; production
    entry points build from a :class:`ServiceConfig` and call
    :meth:`start`.
    """

    def __init__(
        self,
        bounds: Rect,
        n_nodes: int,
        queries: list[RangeQuery],
        reduction: ReductionFunction,
        config: LiraConfig | None = None,
        service_rate: float = 1_500.0,
        queue_capacity: int = 600,
        policy: str = "lira",
        adapt_period: float = 0.5,
        station_radius: float = 4_000.0,
        faults: FaultInjector | None = None,
        clock: timing.Clock = timing.monotonic,
    ) -> None:
        self.config = config or LiraConfig(l=13, alpha=16)
        self.bounds = bounds
        self.n_nodes = n_nodes
        self.policy = policy
        self.clock = clock
        self.faults = faults
        self.adapt_period = adapt_period
        self.shard = LiraShard(
            0,
            place_uniform_stations(bounds, station_radius),
            bounds,
            n_nodes,
            queries,
            reduction,
            self.config,
            service_rate,
            queue_capacity,
            adaptive_throttle=True,
            policy=policy,
            policy_seed=0,
            # Cross-round adaptation state (bit-identical plans): what
            # makes delta pushes and skipped pushes of unchanged plans.
            incremental=True,
        )
        self.server = self.shard.server
        self.shedder = self.shard.shedder
        self.network = self.shard.network
        self.shedder.throtloop.utilization_target = UTILIZATION_TARGET
        self.shedder.throtloop.smoothing = THROTTLE_SMOOTHING
        #: Monotonic service-level accounting (wire activity, not queue state).
        self.counters = Counters(
            "ingest_frames",
            "reports_received",
            # acks_sent split by who wrote the ack: an ingest dispatch (the
            # frame's own or a later arrival's drain) or the timer pump.
            # Mostly deferred means ingest latency is bound by the pump
            # period or a backlog.
            "acks_sent",
            "acks_inline",
            "acks_deferred",
            # Timer wakes (replayed ticks excluded): none while idle.
            "timer_pumps",
            "protocol_errors",
            "plans_computed",
            "plans_pushed",
            # Of plans_pushed, how many went out as compact delta frames.
            "delta_plans_pushed",
            # Pushes skipped because the subscriber's content was unchanged.
            "plan_pushes_skipped",
            # Pushes withheld from a subscriber over SEND_BUDGET_BYTES.
            "plan_pushes_dropped",
            # Plan/delta frame encodings (at most once per kind per
            # installed plan, regardless of subscriber count).
            "plan_frames_encoded",
        )
        self.protocol_errors_by_reason: dict[str, int] = {}
        # (lifetime_enqueued, lifetime_dropped) of the queue at the last
        # adapt_once: what ``period_drop_rate`` differences against.
        self._drop_mark = (0, 0)
        self.plan_generated_t = 0.0
        # Delta-broadcast state of the last install: the delta that
        # carried the previous plan to the current one (None = full
        # install), which stations actually saw new content (None =
        # all), and per-install encoded frame cache keyed by the
        # network version the frame was built for.
        self._last_delta: PlanDelta | None = None
        self._changed_stations: frozenset[int] | None = None
        self._plan_dirty = False
        self._frame_cache: dict[str, tuple[int, bytes]] = {}
        # FIFO of deferred acks: marks are monotone in append order
        # because enqueueing happens inline on the (single) event loop.
        self._pending: deque[_PendingAck] = deque()
        # One pump timeline for the timer and the arrival-driven drain,
        # so granted capacity sums to elapsed time; the slowdown factor
        # in force is whatever the last tick sampled.
        self._last_pump_t = clock()
        self._rate_factor = 1.0
        # The timer's last tick, run or replayed (None: no timer), and the
        # tick it sleeps until (None: parked until an ingest sets the event).
        self._tick_t: float | None = None
        self._due_t: float | None = None
        self._backlog = asyncio.Event()
        self._subscribers: list[_Subscriber] = []
        #: Every open connection, so stop() can drop them.
        self._connections: set[_Connection] = set()
        self._asyncio_server: asyncio.AbstractServer | None = None
        self._tasks: list[asyncio.Task] = []
        self._slow_callback_detector: sanitize.SlowCallbackDetector | None = None

    # ------------------------------------------------------------------
    # Synchronous core (socket-free; what the protocol handlers call)
    # ------------------------------------------------------------------

    def apply_ingest(
        self,
        t: float,
        node_ids: np.ndarray,
        positions: np.ndarray,
        velocities: np.ndarray,
        times: np.ndarray | None = None,
    ) -> IngestResult:
        """Apply one batch of reports; equivalent to ``receive_reports``.

        This is the entire server-side effect of an ``ingest`` frame, so
        tests can assert wire-path/direct-path equivalence against a
        plain :class:`MobileCQServer` without opening a socket.
        """
        queue = self.server.queue
        drops_before = queue.lifetime_dropped
        admitted = self.server.receive_reports(
            t, node_ids, positions, velocities, times=times
        )
        dropped = queue.lifetime_dropped - drops_before
        self.counters.ingest_frames += 1
        self.counters.reports_received += int(np.asarray(node_ids).size)
        return IngestResult(
            admitted=admitted,
            dropped=int(dropped),
            queue_length=len(queue),
            mark=queue.lifetime_enqueued if admitted else None,
        )

    def pump_once(self, dt: float, rate_factor: float | None = None) -> int:
        """Grant ``dt`` seconds of service capacity; returns processed count.

        The slowdown fault seam scales capacity exactly as the systems
        loop's tick path does: ``rate_factor=None`` samples it (one RNG
        draw, as a timer tick makes) and the result stays in force for
        callers that pass it back in.  Idle credit beyond one update is
        forgotten (a live server cannot bank capacity it did not use).
        """
        if rate_factor is None:
            rate_factor = self._rate_factor = (
                self.faults.service_factor(self.clock()) if self.faults is not None else 1.0
            )
        processed = self.server.process(dt, rate_factor=rate_factor)
        if len(self.server.queue) == 0:
            self.server.clamp_service_credit()
        return processed

    def _pump(self, now: float, rate_factor: float | None = None) -> int:
        """Grant the time since the last pump, then flush the acks it
        completed; returns how many."""
        dt = max(0.0, now - self._last_pump_t)
        self._last_pump_t = now
        self.pump_once(dt, rate_factor)
        return self._complete_acks()

    def _timer_pump(self, now: float) -> None:
        """One timer wake: replay up to ``now``, sleep until an ack is due."""
        self.counters.timer_pumps += 1
        self._replay_skipped_ticks(now, wake=True)
        self._due_t = self._due_tick()

    def _due_tick(self) -> float | None:
        """The first tick that can complete the head pending ack at full
        rate, or None; slowdowns and the 1e-6 tick of rounding slack only
        make a wake early (the timer then replays and re-arms)."""
        start, server = self._tick_t, self.server
        if start is None or not self._pending:
            return None
        short = self._pending[0].mark - server.queue.lifetime_dequeued - server._service_credit
        ticks = (short / server.service_rate + self._last_pump_t - start) / PUMP_PERIOD
        return start + max(1, int(np.ceil(ticks - 1e-6))) * PUMP_PERIOD

    def _replay_skipped_ticks(self, now: float, wake: bool = False) -> None:
        """Run the ticks skipped up to ``now``: one pump per tick that finds
        a backlog, then one for the idle rest (each idle tick would grant
        its period to the empty queue and clamp the credit, so one pump
        lands on the same credit and period).  Every tick draws its
        slowdown factor; the last stays in force.  A woken timer runs its
        last tick at ``now``, as an always-on timer runs a late tick."""
        start = self._tick_t
        if start is None:
            return
        k = int((now - start) / PUMP_PERIOD + 1e-6)
        for j in range(1, k + 1):
            t = now if wake and j == k else start + j * PUMP_PERIOD
            if self.faults is not None:
                self._rate_factor = self.faults.service_factor(t)
            if j == k or len(self.server.queue):
                self.counters.acks_deferred += self._pump(t, self._rate_factor)
                self._tick_t = t

    @property
    def plan(self) -> SheddingPlan | None:
        """The plan the station network currently serves."""
        return self.shard.plan

    def adapt_once(self) -> SheddingPlan:
        """One adaptation: the shard's control step on believed state.

        The same step :meth:`repro.server.system.LiraSystem.adapt` runs,
        with the believed node state standing in for the simulator's
        ground truth — a live server only knows what was reported to it.
        """
        now = self.clock()
        self._replay_skipped_ticks(now)
        plan, delta, delivered = self.shard.control_step(*self._believed(now), now)
        self.counters.plans_computed += 1
        queue = self.server.queue
        self._drop_mark = (queue.lifetime_enqueued, queue.lifetime_dropped)
        # Unchanged content (nothing installed): the network and every
        # subscriber already hold it — nothing to push.
        self._plan_dirty = delivered is not None
        if delivered is not None:
            self._last_delta = delta
            # A delta install re-delivers only stations whose subset
            # changed; a full install re-delivers everyone (None =
            # no skipping).
            self._changed_stations = (
                frozenset(delivered) if delta is not None else None
            )
            self.plan_generated_t = now
        return plan

    def _believed(self, now: float) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Believed ``(positions, speeds)`` of the known nodes at ``now``;
        ``(None, None)`` before any report."""
        table = self.server.table
        known = np.flatnonzero(table.known_mask)
        if known.size == 0:
            return None, None
        believed = np.take(table.predict(now), known, axis=0)
        # Clamp believed positions into bounds: extrapolating a stale
        # model can walk a node outside the monitoring region, and the
        # statistics grid ignores out-of-bounds samples entirely.
        believed[:, 0] = np.clip(believed[:, 0], self.bounds.x1, self.bounds.x2)
        believed[:, 1] = np.clip(believed[:, 1], self.bounds.y1, self.bounds.y2)
        vel = np.take(table.velocities, known, axis=0)
        return believed, np.hypot(vel[:, 0], vel[:, 1])

    def stats_meta(self) -> dict:
        """The ``stats`` frame payload: one consistent snapshot."""
        self._replay_skipped_ticks(self.clock())
        queue = self.server.queue
        table = self.server.table
        return {
            # Hinted vs cold GRIDREDUCE path at a glance: memo hits/misses,
            # gain-kernel calls and rows, lifetime and ``last_round_*``.
            **self.shedder.session.gridreduce.counters(),
            "policy": self.policy,
            "z": self.shedder.current_z,
            "plan_version": self.network.version,
            "plan_regions": self.plan.num_regions if self.plan else 0,
            "queue_length": len(queue),
            "queue_capacity": queue.capacity,
            "drop_rate": queue.drop_rate(),
            "period_drop_rate": queue.drop_rate(self._drop_mark),
            "lifetime_enqueued": queue.lifetime_enqueued,
            "lifetime_dropped": queue.lifetime_dropped,
            "lifetime_dequeued": queue.lifetime_dequeued,
            "updates_applied": table.updates_applied,
            "updates_discarded": table.updates_discarded,
            **self.counters.snapshot(),
            "protocol_errors_by_reason": dict(self.protocol_errors_by_reason),
            "plan_epoch": self.plan.epoch if self.plan is not None else 0,
            "plan_broadcast_bytes": self.network.total_broadcast_bytes,
            "subscribers": len(self._subscribers),
            "service_rate": self.server.service_rate,
        }

    # ------------------------------------------------------------------
    # Plan push
    # ------------------------------------------------------------------

    def _frame_meta(self) -> dict:
        return {
            "version": self.network.version,
            "generated_t": self.plan_generated_t,
            "z": self.shedder.current_z,
            "policy": self.policy,
        }

    def _broadcast_frame(self, kind: str, key: str, content: Any) -> bytes:
        """The ``kind`` frame carrying ``content.to_dict()`` under ``key``,
        encoded once per installed plan.

        The cache is keyed by the network version the frame was built
        for — every install bumps it — so a fleet of N full-channel
        subscribers costs one serialization per adaptation, not N.
        """
        cached = self._frame_cache.get(kind)
        if cached is None or cached[0] != self.network.version:
            meta = self._frame_meta()
            meta[key] = content.to_dict()
            cached = self._frame_cache[kind] = (
                self.network.version, encode_frame(kind, meta)
            )
            self.counters.plan_frames_encoded += 1
        return cached[1]

    def _plan_frame(self, subscriber: _Subscriber) -> bytes | None:
        """Encode the current plan for one subscriber (None = nothing yet)."""
        if self.plan is None:
            return None
        if subscriber.station_id is None:
            return self._broadcast_frame("plan", "plan", self.plan)
        subset = self.network.subset_or_none(subscriber.station_id)
        meta = self._frame_meta()
        meta["station_id"] = subscriber.station_id
        meta["default_delta"] = self.config.delta_min
        if subset is None or not subset.regions:
            return encode_frame("plan-subset", meta)
        rects = np.array(
            [[r.rect.x1, r.rect.y1, r.rect.x2, r.rect.y2] for r in subset.regions],
            dtype=np.float64,
        )
        deltas = np.array([r.delta for r in subset.regions], dtype=np.float64)
        return encode_frame("plan-subset", meta, {"rects": rects, "deltas": deltas})

    def _push_plan(self) -> None:
        """Send the newest plan content to every live subscriber.

        Full-channel subscribers sitting at the delta's base epoch get
        the compact ``plan-delta`` frame; everyone else (fresh, lapsed,
        or after a geometry change) gets a full-plan resync.  Station
        subscribers whose subset the delta proved unchanged are skipped
        outright.  An adaptation that produced the identical plan object
        pushes nothing at all.  A subscriber whose unread bytes exceed
        ``SEND_BUDGET_BYTES`` gets nothing now and a full resync once it
        has read them.
        """
        if self.plan is None or not self._subscribers:
            return
        if not self._plan_dirty:
            self.counters.plan_pushes_skipped += len(self._subscribers)
            return
        delta = self._last_delta
        live: list[_Subscriber] = []
        for subscriber in self._subscribers:
            if subscriber.writer.is_closing():
                continue
            live.append(subscriber)
            if subscriber.writer.get_write_buffer_size() > SEND_BUDGET_BYTES:
                subscriber.epoch = None
                self.counters.plan_pushes_dropped += 1
                continue
            if subscriber.station_id is not None:
                if (
                    subscriber.epoch is not None
                    and self._changed_stations is not None
                    and subscriber.station_id not in self._changed_stations
                ):
                    self.counters.plan_pushes_skipped += 1
                    continue
                payload = self._plan_frame(subscriber)
                if payload is not None:
                    subscriber.writer.write(payload)
                    subscriber.epoch = self.plan.epoch
                    self.counters.plans_pushed += 1
                continue
            if delta is not None and subscriber.epoch == delta.base_epoch:
                subscriber.writer.write(self._broadcast_frame("plan-delta", "delta", delta))
                self.counters.delta_plans_pushed += 1
            else:
                subscriber.writer.write(self._broadcast_frame("plan", "plan", self.plan))
            subscriber.epoch = self.plan.epoch
            self.counters.plans_pushed += 1
        self._subscribers = live

    # ------------------------------------------------------------------
    # Background tasks
    # ------------------------------------------------------------------

    def _complete_acks(self) -> int:
        """Flush pending acks whose reports have been applied."""
        done = self.server.queue.lifetime_dequeued
        sent = 0
        while self._pending and self._pending[0].mark <= done:
            pending = self._pending.popleft()
            if pending.writer.is_closing():
                continue
            pending.meta["done_t"] = self.clock()
            pending.writer.write(encode_frame("ingest-ack", pending.meta))
            sent += 1
        self.counters.acks_sent += sent
        return sent

    async def _pump_loop(self) -> None:
        self._tick_t = self._last_pump_t = self.clock()
        self._due_t = self._tick_t + PUMP_PERIOD
        self._backlog = asyncio.Event()
        while True:
            while self._due_t is None:  # parked until an ack is pending
                self._backlog.clear()
                await self._backlog.wait()
            await asyncio.sleep(max(0.0, self._due_t - self.clock()))
            now = self.clock()
            try:
                self._timer_pump(now)
            except Exception:
                logger.exception("service pump iteration failed")
                self._due_t = now + PUMP_PERIOD

    async def _adapt_loop(self) -> None:
        while True:
            await asyncio.sleep(self.adapt_period)
            try:
                self.adapt_once()
                self._push_plan()
            except Exception:
                logger.exception("adaptation iteration failed")

    # ------------------------------------------------------------------
    # Socket protocol
    # ------------------------------------------------------------------

    def _dispatch(self, frame: Frame, writer: asyncio.WriteTransport) -> None:
        if frame.kind == "ping":
            meta = dict(frame.meta)
            meta["server_t"] = self.clock()
            writer.write(encode_frame("pong", meta))
            return
        if frame.kind == "ingest":
            self._handle_ingest(frame, writer)
            return
        if frame.kind == "subscribe":
            station_id = frame.meta.get("station_id")
            subscriber = _Subscriber(
                writer=writer,
                station_id=int(station_id) if station_id is not None else None,
            )
            self._subscribers.append(subscriber)
            payload = self._plan_frame(subscriber)
            if payload is not None:
                writer.write(payload)
                if self.plan is not None:
                    subscriber.epoch = self.plan.epoch
                self.counters.plans_pushed += 1
            return
        if frame.kind == "stats":
            meta = self.stats_meta()
            meta["seq"] = frame.meta.get("seq")
            writer.write(encode_frame("stats-reply", meta))
            return
        self._protocol_error(writer, "unknown-kind", f"unknown frame kind {frame.kind!r}")

    def _protocol_error(self, writer: asyncio.WriteTransport, reason: str, message: str) -> None:
        """Count a refused frame by reason and tell the peer why."""
        self.counters.protocol_errors += 1
        by_reason = self.protocol_errors_by_reason
        by_reason[reason] = by_reason.get(reason, 0) + 1
        writer.write(encode_frame("error", {"message": message}))

    def _handle_ingest(self, frame: Frame, writer: asyncio.WriteTransport) -> None:
        recv_t = self.clock()
        fault = _ingest_fault(frame.arrays, self.n_nodes)
        if fault is not None:
            self._protocol_error(writer, *fault)
            return
        self._replay_skipped_ticks(recv_t)
        result = self.apply_ingest(recv_t, **frame.arrays)
        meta = {
            "seq": frame.meta.get("seq"),
            "send_t": frame.meta.get("send_t"),
            "recv_t": recv_t,
            "admitted": result.admitted,
            "dropped": result.dropped,
            "queue_length": result.queue_length,
        }
        if result.mark is None:
            meta["done_t"] = self.clock()
            writer.write(encode_frame("ingest-ack", meta))
            self.counters.acks_sent += 1
            self.counters.acks_inline += 1
            return
        self._pending.append(_PendingAck(writer=writer, meta=meta, mark=result.mark))
        # Arrival-driven drain: the capacity elapsed since the last pump
        # (at most what the next timer tick would grant this batch) is
        # granted now, so with capacity to spare the ack leaves in this
        # dispatch instead of waiting out the rest of a pump period.
        self.counters.acks_inline += self._pump(recv_t, self._rate_factor)
        if self._due_t is None and self._pending:  # wake a parked timer
            self._due_t = self._due_tick()
            self._backlog.set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(
        self,
        path: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        """Install the first plan, bind (unix socket if ``path`` else TCP)
        and start the loops.

        The first control step runs before the bind, so any peer that can
        connect is served a plan (the trivial Δ⊢ plan: no reports yet).
        No service time has elapsed, so THROTLOOP is not stepped: its
        first sample is still the first ``adapt_period`` of traffic.
        """
        if self._asyncio_server is not None:
            raise RuntimeError("service already started")
        if self.plan is None:
            self.adapt_once()
        loop, protocol = asyncio.get_running_loop(), lambda: _Connection(self)
        if path is not None:
            self._asyncio_server = await loop.create_unix_server(protocol, path=path)
        else:
            self._asyncio_server = await loop.create_server(protocol, host=host, port=port)
        if sanitize.enabled():
            self._slow_callback_detector = sanitize.SlowCallbackDetector(
                threshold_s=sanitize.slow_callback_threshold_s()
            )
            self._slow_callback_detector.install()
        self._tasks = [
            self._spawn_task(self._pump_loop(), name="lira-service-pump"),
            self._spawn_task(self._adapt_loop(), name="lira-service-adapt"),
        ]

    def _spawn_task(self, coro: Coroutine[Any, Any, None], name: str) -> asyncio.Task:
        """Create a background task whose failure is surfaced, not lost.

        A bare ``create_task`` whose handle dies with the method frame
        can be garbage-collected mid-flight, and an exception that kills
        the loop task would go unreported until interpreter exit.  The
        done-callback logs any non-cancellation death immediately
        (REP042).
        """
        task = asyncio.create_task(coro, name=name)
        task.add_done_callback(self._on_task_done)
        return task

    @staticmethod
    def _on_task_done(task: asyncio.Task) -> None:
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            logger.error(
                "service background task %r died: %r", task.get_name(), exc
            )

    @property
    def bound_port(self) -> int | None:
        """The bound TCP port (None for unix sockets / before start)."""
        if self._asyncio_server is None:
            return None
        for sock in self._asyncio_server.sockets:
            name = sock.getsockname()
            if isinstance(name, tuple) and len(name) >= 2:
                return int(name[1])
        return None

    async def stop(self) -> None:
        """Cancel the loops, close the listening socket, drop every open
        connection."""
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
            except Exception:
                # Already reported by _on_task_done; a dead pump must
                # not abort shutdown of the listener and its peer task.
                pass
        self._tasks = []
        self._tick_t = self._due_t = None  # no timer left to replay
        if self._slow_callback_detector is not None:
            self._slow_callback_detector.uninstall()
            self._slow_callback_detector = None
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            # Since Python 3.12.1 wait_closed() also waits for every open
            # connection.  abort(), not close(): bytes buffered for a peer
            # that stopped reading would keep its connection open.
            for connection in list(self._connections):
                connection.transport.abort()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None

    async def serve_forever(self) -> None:
        """Block until cancelled (the listener must be started)."""
        if self._asyncio_server is None:
            raise RuntimeError("call start() first")
        await self._asyncio_server.serve_forever()


class _Connection(asyncio.BufferedProtocol):
    """One peer of a :class:`LiraService`, unix or TCP (DESIGN.md §9).

    Frames are received into one reused buffer and dispatched where they
    landed, as read-only views; the queue copies out what it keeps before
    the buffer takes more bytes.  A paused transport write pauses reading.
    """

    def __init__(self, service: LiraService) -> None:
        self.service = service
        self.transport: asyncio.Transport
        self._buf = bytearray(RECV_BUFFER_BYTES)
        #: The bytes not yet dispatched: ``_buf[_start:_end]``.
        self._start = self._end = 0
        self._paused = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:  # reprolint: disable=REP015 - transport callback
        self.transport = cast(asyncio.Transport, transport)
        self.service._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:  # reprolint: disable=REP015 - transport callback
        service = self.service
        service._connections.discard(self)
        service._subscribers = [s for s in service._subscribers if s.writer is not self.transport]

    def get_buffer(self, sizehint: int) -> memoryview:  # reprolint: disable=REP015 - transport callback
        return memoryview(self._buf)[self._end :]

    def buffer_updated(self, nbytes: int) -> None:  # reprolint: disable=REP015 - transport callback
        self._end += nbytes
        self._dispatch_frames()

    def eof_received(self) -> None:  # reprolint: disable=REP015 - transport callback
        # The transport then closes, once the replies are flushed.
        if self._end > self._start:
            self.service._protocol_error(self.transport, "bad-frame", "EOF inside a frame")

    def pause_writing(self) -> None:  # reprolint: disable=REP015 - transport callback
        self._paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:  # reprolint: disable=REP015 - transport callback
        self._paused = False
        self._dispatch_frames()
        if not self._paused:
            self.transport.resume_reading()

    def _dispatch_frames(self) -> None:
        """Dispatch the complete frames received until writing pauses,
        then make room for the rest of the incomplete one."""
        view, transport = memoryview(self._buf).toreadonly(), self.transport
        try:
            while not (self._paused or transport.is_closing()):
                frame, size = cut_frame(view[self._start : self._end])
                if frame is None:
                    break
                self._start += size
                self.service._dispatch(frame, transport)
            else:
                return
        except FrameError as exc:
            self.service._protocol_error(transport, "bad-frame", str(exc))
            transport.close()
            return
        finally:
            self.service.server.queue.own()  # before the buffer is reused
        start, end, buf = self._start, self._end, self._buf
        if start == end:
            self._start = self._end = 0
            if len(buf) > RECV_KEEP_BYTES:
                self._buf = bytearray(RECV_BUFFER_BYTES)
        elif start + size > len(buf) and (start > 0 or end == len(buf)):
            # The frame does not fit behind its head: move the head to the
            # front, of a buffer twice as large (at most the frame) once
            # the frame's bytes fill this one, so it grows as they arrive.
            if start == 0:
                self._buf = bytearray(min(size, 2 * len(buf)))
            memoryview(self._buf)[: end - start] = memoryview(buf)[start:end]
            self._start, self._end = 0, end - start
