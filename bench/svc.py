"""The two service workloads: a spawned service under an open-loop sender.

``svc-overload`` offers four times what the *modelled* service rate can
take, so latency is the bounded queue plus THROTLOOP: it measures
control quality and is nearly blind to CPU cost.  ``svc-firehose`` lifts
the modelled rate out of the way (z stays 1) and sends 25 times the
reports, so it measures the real CPU path: decode, apply, pump, encode,
and a 100-region plan push.  Two processes, one connection.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
from dataclasses import dataclass

import numpy as np

from repro import timing
from repro.loadtest import LoadProfile
from repro.service import ServiceConfig, decode_frame, encode_frame

import harness
from harness import Report
from inputs import Motion
from sender import OUT_DIR, Schedule, Sender, Session, spawned_service
from spans import SpanSummary

LATENCY_LIMIT_MS = 150.0
LATE_MS = 5.0
WARM_S = 4.0
#: Simulated seconds between frames: deviation grows ~10 m per frame,
#: inside the throttlers' 5-100 m range (as in ``repro.loadtest``).
SIM_STEP_S = 10.0


@dataclass(frozen=True)
class Traffic:
    #: Flags for the service process, on top of the ``ServiceConfig`` defaults.
    flags: tuple[str, ...]
    config: ServiceConfig
    frames_per_second: float
    #: THROTLOOP never engages: every pushed plan must carry z = 1.
    z_is_one: bool


def _traffic(frames_per_second: float, z_is_one: bool, **overrides) -> Traffic:
    flags = []
    for key, value in overrides.items():
        flag = "regions" if key == "l" else key.replace("_", "-")
        flags += [f"--{flag}", repr(value)]
    return Traffic(tuple(flags), ServiceConfig(**overrides), frames_per_second, z_is_one)


TRAFFIC = {
    # overload 4 of mu = 1500/s from 400 nodes: 15 frames/s.
    "svc-overload": _traffic(15.0, False),
    "svc-firehose": _traffic(
        30.0, True, n_nodes=10_000, service_rate=1e9, queue_capacity=200_000,
        l=100, alpha=64, station_radius=1_500.0,
    ),
}


def _schedule(traffic: Traffic, duration: float, seed: int) -> Schedule:
    """Constant-rate send times and wanderers, as ``OpenLoopSchedule.build`` makes them."""
    offsets_seed, motion_seed = np.random.SeedSequence(seed).spawn(2)
    gap = 1.0 / traffic.frames_per_second
    offsets = LoadProfile("constant").offsets(duration, gap, np.random.default_rng(offsets_seed))
    config = traffic.config
    motion = Motion(
        "wander", config.n_nodes, config.side, np.random.default_rng(motion_seed),
        dt=SIM_STEP_S, speed_range=(10.0, 30.0),
    )
    return Schedule(offsets, motion, SIM_STEP_S / gap)


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _median_us(fn, repeats: int = 20) -> float:
    return statistics.median(timing.wall_time_samples(fn, repeats)) * 1e6


def run(workload: str, seed: int, seconds: float, traced: bool, quick: bool) -> Report:
    traffic = TRAFFIC[workload]
    warm_s = WARM_S / 2 if quick else WARM_S
    report = Report(workload, seed, traced)
    calib = [harness.calibrate()]
    with timing.Stopwatch() as inputgen:
        schedule = _schedule(traffic, warm_s + seconds, seed)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{os.getpid()}.json")

    # Every set-up spawns a fresh service; only the last one is fired at.
    setups: list[float] = []
    session = Session()
    hwm_mb = 0.0
    for attempt in range(harness.SETUPS_SERVICE):
        last = attempt == harness.SETUPS_SERVICE - 1
        spawn_t = timing.monotonic()
        with spawned_service(list(traffic.flags), spans_path if traced else None) as (proc, path):
            sender = Sender(
                schedule if last else None, warm_s, proc.pid, traffic.config.delta_min
            )
            session = asyncio.run(sender.run(path))
            setups.append(session.first_plan_t - spawn_t)
            hwm_mb = harness.proc_hwm_mb(proc.pid)
    calib.append(harness.calibrate())

    check(report, traffic, session)
    report.fingerprint = {"frames_due": int(schedule.offsets.size)}
    report.put("setup_s", statistics.median(setups), "s", len(setups))
    report.put("peak_rss_mb", hwm_mb, "MB")
    summarise(report, session)
    framing_metrics(report, session, schedule)
    report.put_harness(calib, inputgen.elapsed, harness.INPROC_ONLY)
    if traced:
        service_layers(report, session, spans_path)
    return report


def check(report: Report, traffic: Traffic, session: Session) -> None:
    """The correctness checks; each violation is one failed operation."""
    every = list(session.frames.values())
    missing = sum(f.done_t is None for f in every)
    final = session.stats.get(-1, {})
    report.check(-2 in session.stats and bool(final), "no stats reply from the service")
    report.check(missing == 0, f"{missing} ingest frames never acked")
    report.check(
        sum(f.admitted + f.dropped for f in every) == sum(f.reports for f in every),
        "admitted + dropped != reports sent",
    )
    report.check(session.delta_mismatches == 0,
                 f"{session.delta_mismatches} plan deltas did not apply")
    report.check(
        session.plan is not None and session.plan.epoch == final.get("plan_epoch"),
        "client-reconstructed plan epoch != server plan_epoch",
    )
    if traffic.z_is_one:
        report.check(all(p.z == 1.0 for p in session.pushes), "z moved off 1")


def summarise(report: Report, session: Session) -> None:
    """Latency, drops, CPU and counters of the measured window, by name."""
    frames = [f for f in session.frames.values() if f.scheduled_t >= session.window_start_t]
    acked = [f for f in frames if f.done_t is not None]
    pushes = [p for p in session.pushes if p.receipt_t >= session.window_start_t]
    first, final = session.stats.get(-2, {}), session.stats.get(-1, {})
    window_s = session.window_end_t - session.window_start_t

    def delta(key: str) -> float:
        return final.get(key, 0) - first.get(key, 0)

    report.attempted = len(frames)
    ingest_ms = harness.ms([f.done_t - f.scheduled_t for f in acked])
    when = [f.scheduled_t for f in acked]
    client_ms = harness.ms([f.receipt_t - f.scheduled_t for f in acked])
    push_ms = harness.ms([p.receipt_t - p.generated_t for p in pushes])
    late_ms = harness.ms([f.sent_t - f.scheduled_t for f in frames])
    over = sum(m > LATENCY_LIMIT_MS for m in ingest_ms)
    reports = sum(f.reports for f in frames)
    rounds = delta("plans_computed")
    cpu_s = session.service_cpu_s
    gen_cpu_frac = session.sender_cpu_s / window_s
    lateness_p95 = harness.nearest_rank(late_ms, 0.95)
    if lateness_p95 > LATE_MS:
        report.invalid.append(f"sender lateness p95 {lateness_p95:.1f} ms > {LATE_MS} ms")
    if gen_cpu_frac > 0.7:
        report.invalid.append(f"sender used {gen_cpu_frac:.2f} of a core")

    put = report.put
    put("op_ms_p50", _median(ingest_ms), "ms", len(ingest_ms))
    put("op_ms_p90", harness.quiet_p90(when, ingest_ms), "ms", len(ingest_ms))
    put("plan_ms_p50", _median(push_ms), "ms", len(push_ms))
    put("push_bytes_per_round", sum(p.nbytes for p in pushes) / rounds, "B", int(rounds))
    put("cpu_ms_per_op", cpu_s * 1e3 / delta("ingest_frames"), "ms", int(delta("ingest_frames")))
    report.alias("ingest_ms_p50", "op_ms_p50")
    report.alias("ingest_ms_p90", "op_ms_p90")
    put("service.ingest_ms_p99", harness.nearest_rank(ingest_ms, 0.99), "ms", len(ingest_ms))
    report.alias("plan_push_ms_p50", "plan_ms_p50")
    put("service.plan_push_ms_p95", harness.nearest_rank(push_ms, 0.95), "ms", len(push_ms))
    put("queue_drop_frac", sum(f.dropped for f in acked) / reports, "ratio", reports)
    put("slo_miss_frac", (len(frames) - len(acked) + over) / len(frames), "ratio", len(frames))
    put("svc_cpu_us_per_report", cpu_s * 1e6 / delta("reports_received"), "us",
        int(delta("reports_received")))

    put("cq_server.reports_in", delta("reports_received"), "count")
    put("cq_server.queue_drops", delta("lifetime_dropped"), "count")
    report.alias("cq_server.queue_drop_frac", "queue_drop_frac")
    report.alias("service.slo_miss_frac", "slo_miss_frac")
    client = _median(client_ms)
    for name, parts in (
        ("wire_in", [f.recv_t - f.scheduled_t for f in acked]),
        ("queue_wait", [f.done_t - f.recv_t for f in acked]),
        ("ack_return", [f.receipt_t - f.done_t for f in acked]),
    ):
        part_ms = _median(harness.ms(parts))
        put(f"service.{name}_ms_p50", part_ms, "ms", len(parts))
        put(f"service.{name}_share", part_ms / client, "ratio", len(parts))
    pushed = delta("plans_pushed")
    put("service.delta_push_frac", delta("delta_plans_pushed") / pushed if pushed else 0.0,
        "ratio", int(pushed))
    put("service.plan_pushes_skipped", delta("plan_pushes_skipped"), "count")
    put("service.plan_frames_encoded", delta("plan_frames_encoded"), "count")
    put("service.cpu_s", cpu_s, "s")
    put("service.cpu_frac", cpu_s / window_s, "ratio")
    report.alias("service.rss_mb", "peak_rss_mb")
    put("incremental.plan_reuse_frac", 1.0 - delta("plan_version") / rounds, "ratio", int(rounds))
    put("protocol.broadcast_bytes", delta("plan_broadcast_bytes"), "B", int(rounds))
    zs = [p.z for p in pushes]
    put("z_mean", statistics.fmean(zs), "ratio", len(zs))
    put("throtloop.z_std", statistics.pstdev(zs), "ratio", len(zs))
    put("loadtest.lateness_ms_p95", lateness_p95, "ms", len(late_ms))
    put("loadtest.late_frac", sum(m > LATE_MS for m in late_ms) / len(late_ms), "ratio",
        len(late_ms))
    put("loadtest.gen_cpu_frac", gen_cpu_frac, "ratio")


def framing_metrics(report: Report, session: Session, schedule: Schedule) -> None:
    """Encode and decode, timed in this process on the run's own frames:
    a median-size ingest frame, the last full plan and the last delta."""
    sizes = sorted(
        f.reports for f in session.frames.values() if f.scheduled_t >= session.window_start_t
    )
    m = sizes[len(sizes) // 2]
    meta = {"seq": 0, "send_t": 0.0}
    arrays = {
        "node_ids": np.arange(m),
        "positions": schedule.motion.positions[:m],
        "velocities": schedule.motion.velocities[:m],
        "times": np.zeros(m),
    }
    ingest_frame = encode_frame("ingest", meta, arrays)
    full, last_delta = session.last_full_meta, session.last_delta_meta
    put = report.put
    put("framing.ingest_frame_bytes", len(ingest_frame), "B", m)
    put("framing.encode_ingest_us", _median_us(lambda: encode_frame("ingest", meta, arrays)),
        "us", 20)
    put("framing.decode_ingest_us", _median_us(lambda: decode_frame(ingest_frame)), "us", 20)
    put("framing.encode_plan_us", _median_us(lambda: encode_frame("plan", full)), "us", 20)
    put("framing.plan_frame_bytes", len(encode_frame("plan", full)), "B")
    put("framing.delta_frame_bytes",
        len(encode_frame("plan-delta", last_delta)) if last_delta else 0.0, "B")


def service_layers(report: Report, session: Session, spans_path: str) -> None:
    """Per-layer shares from the spans the traced launcher wrote on SIGTERM."""
    with open(spans_path) as fh:
        dumped = json.load(fh)
    os.remove(spans_path)
    lo, hi = session.window_start_t * 1e9, session.window_end_t * 1e9
    # Parent indices point into the full list, so spans outside the window
    # are blanked (end = 0 means "unfinished") instead of removed.
    spans = [
        tuple(s) if lo <= s[1] and s[2] <= hi else (s[0], s[1], 0, s[3], s[4])
        for s in dumped["spans"]
    ]
    harness.layer_metrics(report, SpanSummary(spans), hi - lo, dumped["missing"])
    lookups = dumped["memo_hits"] + dumped["memo_misses"]
    report.put("incremental.memo_hit_frac",
               dumped["memo_hits"] / lookups if lookups else 0.0, "ratio", lookups)
    report.put("incremental.dirty_cell_frac", dumped["dirty_cell_frac"], "ratio")
    report.trace_spans = spans
