"""The open-loop load generator: fires a precomputed schedule at a
:class:`~repro.service.LiraService` and measures tail latency.

The client is the *node side* of the LIRA protocol, run for real:

* it subscribes to the plan-push channel and keeps the latest
  :class:`~repro.core.plan.SheddingPlan`;
* each scheduled tick, it looks up per-node throttlers from that plan
  (``thresholds_for``), runs vectorized dead reckoning
  (:class:`~repro.motion.DeadReckoningFleet`), and sends **one ingest
  frame with only the nodes whose deviation exceeded their Δ** — under a
  LIRA policy the shedding happens here, at the sources, before any
  byte hits the wire;
* the sender task never waits for acks and never drains the socket —
  if the server stalls, frames keep firing on schedule (open loop).

Latency accounting is coordinated-omission-resistant: each frame's
ingest latency is ``done_t − scheduled_send_t``, where ``done_t`` is
stamped by the server *after the frame's admitted reports were applied*
(ack-after-apply) and ``scheduled_send_t`` is where the schedule said
the tick should fire — not when the sender actually got around to it.
Both sides stamp with ``CLOCK_MONOTONIC`` (the :mod:`repro.timing`
seam), which is machine-wide on Linux, so the subtraction is exact
across the two processes.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, field

import numpy as np

from repro import timing
from repro.core.plan import PlanDelta, PlanEpochMismatch, SheddingPlan
from repro.metrics.slo import LatencySummary, SLOReport, SLOSpec
from repro.motion import DeadReckoningFleet
from repro.loadtest.schedule import OpenLoopSchedule
from repro.service.framing import encode_frame, read_frame

logger = logging.getLogger(__name__)

__all__ = ["LoadtestReport", "run_loadtest"]

#: How long after the last scheduled tick to wait for outstanding acks.
DRAIN_TIMEOUT_S = 5.0


@dataclass
class LoadtestReport:
    """Everything one load-test run measured."""

    ingest: LatencySummary | None
    ingest_slo: SLOReport | None
    plan: LatencySummary | None
    schedule: dict
    frames_sent: int = 0
    reports_sent: int = 0
    reports_admitted: int = 0
    reports_dropped: int = 0
    acks_received: int = 0
    acks_missing: int = 0
    plans_received: int = 0
    plan_deltas_applied: int = 0
    plan_delta_mismatches: int = 0
    warmup_s: float = 0.0
    samples_excluded_warmup: int = 0
    server_stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schedule": self.schedule,
            "frames_sent": self.frames_sent,
            "reports_sent": self.reports_sent,
            "reports_admitted": self.reports_admitted,
            "reports_dropped": self.reports_dropped,
            "acks_received": self.acks_received,
            "acks_missing": self.acks_missing,
            "plans_received": self.plans_received,
            "plan_deltas_applied": self.plan_deltas_applied,
            "plan_delta_mismatches": self.plan_delta_mismatches,
            "warmup_s": self.warmup_s,
            "samples_excluded_warmup": self.samples_excluded_warmup,
            "ingest_latency": self.ingest.to_dict() if self.ingest else None,
            "ingest_slo": self.ingest_slo.to_dict() if self.ingest_slo else None,
            "plan_latency": self.plan.to_dict() if self.plan else None,
            "server_stats": self.server_stats,
        }


class _Receiver:
    """Reader-task state: in-flight frames, samples, and the live plan."""

    def __init__(self, clock: timing.Clock) -> None:
        self.clock = clock
        self.in_flight: dict[int, float] = {}
        #: (scheduled_send_t, latency) per acked ingest frame.
        self.ingest_samples: list[tuple[float, float]] = []
        self.plan_latencies: list[float] = []
        self.subscribed_t = float("-inf")  # an older plan answers subscribe: no push
        self.plan: SheddingPlan | None = None
        self.reports_admitted = 0
        self.reports_dropped = 0
        self.plans_received = 0
        self.plan_deltas_applied = 0
        self.plan_delta_mismatches = 0
        self.acks_received = 0
        self.stats_meta: dict | None = None
        self.stats_event = asyncio.Event()
        self.all_acked = asyncio.Event()
        self.all_acked.set()

    def _plan_received(self, meta: dict) -> None:
        self.plans_received += 1
        generated = meta.get("generated_t")
        if generated is not None and float(generated) >= self.subscribed_t:
            self.plan_latencies.append(self.clock() - float(generated))

    def handle(self, kind: str, meta: dict) -> None:
        if kind == "ingest-ack":
            seq = meta.get("seq")
            scheduled = self.in_flight.pop(seq, None)
            self.acks_received += 1
            self.reports_admitted += int(meta.get("admitted", 0))
            self.reports_dropped += int(meta.get("dropped", 0))
            if scheduled is not None:
                self.ingest_samples.append(
                    (scheduled, float(meta["done_t"]) - scheduled)
                )
            if not self.in_flight:
                self.all_acked.set()
            return
        if kind in ("plan", "plan-subset"):
            self._plan_received(meta)
            if "plan" in meta:
                self.plan = SheddingPlan.from_dict(meta["plan"])
            return
        if kind == "plan-delta":
            self._plan_received(meta)
            if self.plan is None or "delta" not in meta:
                # No base plan to patch — keep shedding at the default
                # until the server resyncs us with a full push.
                self.plan_delta_mismatches += 1
                return
            try:
                self.plan = self.plan.apply_delta(PlanDelta.from_dict(meta["delta"]))
                self.plan_deltas_applied += 1
            except PlanEpochMismatch:
                # Stale base: keep the old plan (its thresholds are the
                # best belief available) and await a full resync.
                self.plan_delta_mismatches += 1
            return
        if kind == "stats-reply":
            self.stats_meta = meta
            self.stats_event.set()
            return
        if kind == "error":
            logger.warning("server error frame: %s", meta.get("message"))


async def _read_loop(reader: asyncio.StreamReader, state: _Receiver) -> None:
    while True:
        frame = await read_frame(reader)
        if frame is None:
            return
        state.handle(frame.kind, frame.meta)


async def run_loadtest(
    schedule: OpenLoopSchedule,
    slo: SLOSpec | None = None,
    path: str | None = None,
    host: str = "127.0.0.1",
    port: int | None = None,
    warmup_s: float = 3.0,
    default_delta: float = 5.0,
    clock: timing.Clock = timing.monotonic,
) -> LoadtestReport:
    """Replay ``schedule`` against a running service; returns the report.

    Connect via unix socket ``path`` or TCP ``host``/``port``.  Samples
    scheduled inside the first ``warmup_s`` seconds are excluded from
    the latency summary (they measure bootstrap reporting and THROTLOOP
    settling from the first plan's z = 1, not steady-state behaviour).
    """
    if path is not None:
        reader, writer = await asyncio.open_unix_connection(path)
    elif port is not None:
        reader, writer = await asyncio.open_connection(host, port)
    else:
        raise ValueError("either path or port is required")
    state = _Receiver(clock)
    read_task = asyncio.create_task(_read_loop(reader, state), name="loadtest-read")

    fleet = DeadReckoningFleet(schedule.n_nodes)
    frames_sent = 0
    reports_sent = 0
    try:
        state.subscribed_t = clock()
        writer.write(encode_frame("subscribe", {}))
        await writer.drain()

        start = clock()
        for r in range(schedule.n_ticks):
            target = start + float(schedule.offsets[r])
            delay = target - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            # else: behind schedule — fire immediately, never skip
            # (open loop: the lateness lands in the latency, as it
            # would for a real client whose send was queued).
            positions = schedule.positions[r]
            velocities = schedule.velocities[r]
            if state.plan is not None:
                fleet.set_thresholds(state.plan.thresholds_for(positions))
            else:
                fleet.set_thresholds(default_delta)
            senders = fleet.observe(target, positions, velocities)
            if senders.size == 0:
                continue
            state.in_flight[r] = target
            state.all_acked.clear()
            writer.write(
                encode_frame(
                    "ingest",
                    {"seq": r, "send_t": target},
                    {
                        "node_ids": senders,
                        "positions": positions[senders],
                        "velocities": velocities[senders],
                        "times": np.full(senders.size, target),
                    },
                )
            )
            frames_sent += 1
            reports_sent += int(senders.size)
        await writer.drain()

        # Drain: wait (bounded) for outstanding acks, then fetch stats.
        try:
            await asyncio.wait_for(state.all_acked.wait(), timeout=DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            logger.warning("%d ingest frames never acked", len(state.in_flight))
        writer.write(encode_frame("stats", {"seq": -1}))
        await writer.drain()
        try:
            await asyncio.wait_for(state.stats_event.wait(), timeout=DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            logger.warning("no stats reply from server")
    finally:
        read_task.cancel()
        try:
            await read_task
        except asyncio.CancelledError:
            pass
        writer.close()

    cutoff = start + warmup_s
    kept = [lat for sched_t, lat in state.ingest_samples if sched_t >= cutoff]
    excluded = len(state.ingest_samples) - len(kept)
    ingest = LatencySummary.from_samples(kept) if kept else None
    plan_summary = (
        LatencySummary.from_samples(state.plan_latencies)
        if state.plan_latencies
        else None
    )
    return LoadtestReport(
        ingest=ingest,
        ingest_slo=slo.evaluate(ingest) if slo is not None and ingest else None,
        plan=plan_summary,
        schedule=schedule.describe(),
        frames_sent=frames_sent,
        reports_sent=reports_sent,
        reports_admitted=state.reports_admitted,
        reports_dropped=state.reports_dropped,
        acks_received=state.acks_received,
        acks_missing=len(state.in_flight),
        plans_received=state.plans_received,
        plan_deltas_applied=state.plan_deltas_applied,
        plan_delta_mismatches=state.plan_delta_mismatches,
        warmup_s=warmup_s,
        samples_excluded_warmup=excluded,
        server_stats=state.stats_meta or {},
    )
