"""The three in-process workloads: one ``LiraSystem`` driven directly.

``loop-250k`` is the data path at scale (tick + query evaluation, an
adapt every fifth tick); ``adapt-drift`` and ``adapt-churn`` are the
control path used two ways (sparse drift that the incremental memo
absorbs, and whole-population churn that defeats it).  All three are
batch jobs at a stated input size: the number of operations is fixed by
``--seconds`` and the scene, so the work is a pure function of the seed.

Timings are host-normalised (``harness.reference``): ms at the speed of
the reference host, not of whatever this host is doing this minute.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import timing
from repro.core import AnalyticReduction, LiraConfig
from repro.geo import Rect
from repro.metrics.accuracy import mean_containment_error
from repro.queries import QueryDistribution, evaluate_queries, generate_workload
from repro.server import LiraSystem
from repro.service.framing import encode_frame

import harness
from harness import Report
from inputs import Motion
from layers import wrap_system
from spans import SpanSummary, Tracer

DELTA_MIN, DELTA_MAX = 5.0, 100.0
WARM_OPS = 5
#: The batch is sized to take about 0.8 x ``--seconds`` on a quiet host.  A
#: run is cut short once its measured window exceeds this multiple of
#: ``--seconds``, so a slow host lengthens a run by a bounded amount; its
#: counts then no longer repeat and its fingerprint says so.
OVERRUN = 1.5


@dataclass(frozen=True)
class Scene:
    n_nodes: int
    side: float
    n_queries: int
    query_side: float
    #: Operations per second of ``--seconds``: sizes the batch.
    ops_per_second: float
    #: Pinned throttle fractions, cycled one per round.
    z_cycle: tuple[float, ...]
    motion: str
    #: tick() is part of the job (else the job is adapt() rounds only).
    ticks: bool
    #: Which ``harness.REFERENCES`` kernel resembles the working set.
    reference: str
    #: Compare the plan with a from-scratch system every this many rounds.
    oracle_every: int = 0


SCENES = {
    "loop-250k": Scene(
        250_000, 14_000.0, 64, 500.0, 4.0, (0.5,), "wander", True, "memory"
    ),
    "adapt-drift": Scene(
        20_000, 10_000.0, 40, 800.0, 50.0, (0.6,), "patch", False, "cache", 50
    ),
    "adapt-churn": Scene(
        20_000, 10_000.0, 40, 800.0, 12.0,
        tuple(np.linspace(0.4, 0.7, 7).tolist()), "churn", False, "cache", 50,
    ),
}
EVAL_EVERY, ADAPT_EVERY = 4, 5


def build_system(scene: Scene, motion: Motion, queries: list, incremental: bool) -> LiraSystem:
    """Construct + bootstrap + first adapt: what ``setup_s`` times."""
    n = scene.n_nodes
    system = LiraSystem(
        bounds=Rect(0.0, 0.0, scene.side, scene.side),
        n_nodes=n,
        queries=queries,
        reduction=AnalyticReduction(DELTA_MIN, DELTA_MAX),
        config=LiraConfig(l=250, alpha=128),
        service_rate=0.2 * n,
        queue_capacity=int(0.02 * n),
        station_radius=1_500.0,
        adaptive_throttle=False,
        incremental=incremental,
    )
    system.shedder.set_throttle_fraction(scene.z_cycle[0])
    system.bootstrap(motion.positions, motion.velocities)
    system.adapt(motion.positions, motion.speeds)
    return system


class OpClock:
    """Times top-level operations: wall, CPU, the host-speed reference
    taken just before, and (traced) a root span."""

    def __init__(self, tracer: Tracer | None, reference: harness.Reference) -> None:
        self.tracer = tracer
        self.reference = reference
        self.wall: dict[str, list[float]] = defaultdict(list)
        self.cpu: dict[str, list[float]] = defaultdict(list)
        self.ref: dict[str, list[float]] = defaultdict(list)
        self.when: dict[str, list[float]] = defaultdict(list)
        self.recording = False

    def run(self, kind: str, request: int, fn: Callable, *args: Any) -> Any:
        if not self.recording:
            return fn(*args)
        self.ref[kind].append(self.reference())
        tracer = self.tracer
        if tracer is not None:
            tracer.request = request
            tracer.enabled = True
            span = tracer.begin("loop." + kind)
        cpu = time.process_time()
        started = timing.monotonic()
        with timing.Stopwatch() as watch:
            result = fn(*args)
        self.cpu[kind].append(time.process_time() - cpu)
        if tracer is not None:
            tracer.end(span)
            tracer.enabled = False
        self.wall[kind].append(watch.elapsed)
        self.when[kind].append(started)
        return result

    def wall_ms(self, kind: str) -> list[float]:
        """Wall time of each operation, in ms at the reference host's speed."""
        return self.reference.normalise(self.wall[kind], self.ref[kind])

    def cpu_ms(self, kind: str) -> list[float]:
        return self.reference.normalise(self.cpu[kind], self.ref[kind])


@dataclass
class Window:
    """What the measured part of one run observed besides timings."""

    n_ops: int
    start_t: float = 0.0
    seconds: float = 0.0
    step_gen_s: float = 0.0
    rounds: int = 0
    plan_reuses: int = 0
    errors: list[float] = field(default_factory=list)
    z_used: list[float] = field(default_factory=list)
    dirty_fracs: list[float] = field(default_factory=list)
    #: Counters at the start of the window: SystemStats, station
    #: deliveries, memo hits, memo misses.
    before: tuple = ()


def plans_equal(a: Any, b: Any) -> bool:
    """Rects, Δ and n/m/s bit-identical, region for region."""
    return len(a.regions) == len(b.regions) and all(
        (p.rect, p.delta, p.n, p.m, p.s) == (q.rect, q.delta, q.n, q.m, q.s)
        for p, q in zip(a.regions, b.regions)
    )


def set_up(scene: Scene, motion: Motion, queries: list) -> tuple[LiraSystem, list[float]]:
    """Build the system ``SETUPS_INPROC`` times; keep the last one."""
    reference = harness.REFERENCES[scene.reference]
    walls, references = [], []
    system = None
    for _ in range(harness.SETUPS_INPROC):
        system = None  # drop the previous one first: peak RSS is one system's
        references.append(reference())
        with timing.Stopwatch() as watch:
            system = build_system(scene, motion, queries, incremental=True)
        walls.append(watch.elapsed)
    return system, [ms / 1e3 for ms in reference.normalise(walls, references)]


def measure(
    scene: Scene,
    seconds: float,
    system: LiraSystem,
    oracle: LiraSystem | None,
    motion: Motion,
    queries: list,
    clock: OpClock,
    grids: list,
    report: Report,
) -> Window:
    """Warm up, then run the batch: ticks with their evals and adapts, or rounds."""
    window = Window(n_ops=max(10, round(scene.ops_per_second * seconds)))
    session = system.shedder.session
    for k in range(1, WARM_OPS + window.n_ops + 1):
        if k == WARM_OPS + 1:
            clock.recording = True
            window.before = (system.stats(), system.network.total_broadcasts,
                             session.gridreduce.hits, session.gridreduce.misses)
            window.start_t = timing.monotonic()
        with timing.Stopwatch() as watch:
            motion.advance()
        if clock.recording:
            window.step_gen_s += watch.elapsed
        if scene.ticks:
            clock.run("tick", k, system.tick, float(k), motion.positions,
                      motion.velocities, 1.0)
            if k % EVAL_EVERY == 0:
                believed = clock.run("eval", k, system.evaluate_queries)
                if clock.recording:
                    truth = evaluate_queries(queries, motion.positions)
                    window.errors.append(mean_containment_error(truth, believed))
        if not scene.ticks or k % ADAPT_EVERY == 0:
            z = scene.z_cycle[k % len(scene.z_cycle)]
            system.shedder.set_throttle_fraction(z)
            clock.run("adapt", k, system.adapt, motion.positions, motion.speeds)
            if clock.recording:
                check_round(scene, k, z, system, oracle, motion, grids, window, report)
        if clock.recording and timing.monotonic() - window.start_t > OVERRUN * seconds:
            break
    window.seconds = timing.monotonic() - window.start_t
    return window


def check_round(
    scene: Scene,
    k: int,
    z: float,
    system: LiraSystem,
    oracle: LiraSystem | None,
    motion: Motion,
    grids: list,
    window: Window,
    report: Report,
) -> None:
    """Counts and correctness checks after one measured adapt round (untimed)."""
    window.rounds += 1
    window.z_used.append(z)
    window.plan_reuses += bool(system.shedder.session.last_plan_reused)
    report.check(
        system.shedder.last_report.budget_met,
        f"round {k}: update budget not met at z={z}",
    )
    if len(grids) == 2:  # traced only: the grids the last two rounds built
        old, new = grids
        window.dirty_fracs.append(
            float(((old.n != new.n) | (old.m != new.m) | (old.s != new.s)).mean())
        )
    del grids[:-1]
    if oracle is not None and window.rounds % scene.oracle_every == 0:
        oracle.shedder.set_throttle_fraction(z)
        oracle.adapt(motion.positions, motion.speeds)
        report.check(
            plans_equal(system.shedder.last_report.plan, oracle.shedder.last_report.plan),
            f"round {k}: incremental plan differs from from-scratch plan",
        )


def run(workload: str, seed: int, seconds: float, traced: bool, quick: bool) -> Report:
    scene = SCENES[workload]
    if quick:
        scene = dataclasses.replace(
            scene, n_nodes=scene.n_nodes // 5, ops_per_second=scene.ops_per_second * 3
        )
    report = Report(workload, seed, traced)
    harness.reset_peak_rss()
    calib = [harness.calibrate()]

    motion_seed, query_seed = np.random.SeedSequence(seed).spawn(2)
    with timing.Stopwatch() as inputgen:
        motion = Motion(
            scene.motion, scene.n_nodes, scene.side, np.random.default_rng(motion_seed)
        )
        queries = generate_workload(
            Rect(0.0, 0.0, scene.side, scene.side),
            scene.n_queries,
            scene.query_side,
            QueryDistribution.PROPORTIONAL,
            motion.positions,
            seed=int(query_seed.generate_state(1)[0]),
        )
    system, setups = set_up(scene, motion, queries)
    oracle = (
        build_system(scene, motion, queries, incremental=False)
        if scene.oracle_every
        else None
    )

    tracer = Tracer() if traced else None
    grids: list = []
    if tracer is not None:
        wrap_system(tracer, system, grids.append)
    clock = OpClock(tracer, harness.REFERENCES[scene.reference])
    try:
        window = measure(scene, seconds, system, oracle, motion, queries, clock, grids, report)
    finally:
        if tracer is not None:
            tracer.restore()
    calib.append(harness.calibrate())
    summarise(report, scene, system, clock, window, setups)

    report.put_harness(calib, inputgen.elapsed, harness.SERVICE_ONLY)
    if tracer is not None:
        summary = SpanSummary(tracer.spans)
        harness.layer_metrics(report, summary, summary.root_ns, tracer.missing)
        report.trace_spans = tracer.spans
    return report


def summarise(
    report: Report,
    scene: Scene,
    system: LiraSystem,
    clock: OpClock,
    window: Window,
    setups: list[float],
) -> None:
    """Everything the run measured, by name."""
    headline = "tick" if scene.ticks else "adapt"
    op_ms = clock.wall_ms(headline)
    adapt_ms = clock.wall_ms("adapt")
    rounds = window.rounds
    start, deliveries, hits, misses = window.before
    after = system.stats()
    session = system.shedder.session
    sent = after.updates_sent - start.updates_sent
    drops = after.queue_drops - start.queue_drops
    push_bytes = after.broadcast_bytes - start.broadcast_bytes
    hits = session.gridreduce.hits - hits
    misses = session.gridreduce.misses - misses
    errors = window.errors

    report.attempted = sum(len(v) for v in clock.wall.values())
    report.check(
        after.updates_processed + after.queue_drops + after.queue_length
        == after.updates_sent,
        "updates_processed + queue_drops + queue_length != updates_sent",
    )
    report.fingerprint = {
        "complete": len(op_ms) == window.n_ops,
        "updates_sent": after.updates_sent,
        "handoffs": after.handoffs,
        "broadcast_bytes": after.broadcast_bytes,
        "containment_err": statistics.fmean(errors) if errors else None,
    }

    put = report.put
    put("setup_s", statistics.median(setups), "s", len(setups))
    put("op_ms_p50", statistics.median(op_ms), "ms", len(op_ms))
    put("op_ms_p90", harness.quiet_p90(clock.when[headline], op_ms), "ms", len(op_ms))
    put("plan_ms_p50", statistics.median(adapt_ms), "ms", len(adapt_ms))
    put("push_bytes_per_round", push_bytes / rounds, "B", rounds)
    # CPU of one headline operation and its share of the other kinds (one
    # eval per four ticks, ...), each kind by its median: a sum of means
    # would let one host stall move the whole number.
    cpu_ms = sum(
        statistics.median(clock.cpu_ms(kind)) * len(samples) / len(op_ms)
        for kind, samples in clock.cpu.items()
    )
    put("cpu_ms_per_op", cpu_ms, "ms", len(op_ms))
    put("peak_rss_mb", harness.proc_hwm_mb(os.getpid()), "MB")
    put("z_mean", statistics.fmean(window.z_used), "ratio", rounds)
    report.alias("adapt_round_ms_p50", "plan_ms_p50")
    put("adapt.round_ms_p90", harness.nearest_rank(adapt_ms, 0.9), "ms", len(adapt_ms))
    put("harness.op_raw_ms_p50", statistics.median(clock.wall[headline]) * 1e3, "ms", len(op_ms))
    if scene.ticks:
        eval_ms = clock.wall_ms("eval")
        report.alias("tick_ms_p50", "op_ms_p50")
        put("query_eval_ms_p50", statistics.median(eval_ms), "ms", len(eval_ms))
        put("loop.tick_ms_p90", harness.nearest_rank(op_ms, 0.9), "ms", len(op_ms))
        put("loop.tick_ms_max", max(op_ms), "ms", len(op_ms))
    put("containment_err", statistics.fmean(errors) if errors else 0.0, "ratio", len(errors))

    put("node_engine.handoffs", after.handoffs - start.handoffs, "count")
    put("cq_server.reports_in", sent, "count")
    put("cq_server.queue_drops", drops, "count")
    put("cq_server.queue_drop_frac", drops / sent if sent else 0.0, "ratio", sent)
    put("incremental.memo_hit_frac", hits / (hits + misses) if hits + misses else 0.0,
        "ratio", hits + misses)
    put("incremental.plan_reuse_frac", window.plan_reuses / rounds, "ratio", rounds)
    put("incremental.dirty_cell_frac",
        statistics.fmean(window.dirty_fracs) if window.dirty_fracs else None, "ratio",
        len(window.dirty_fracs))
    put("protocol.broadcast_bytes", push_bytes, "B", rounds)
    put("protocol.stations_delivered", system.network.total_broadcasts - deliveries,
        "count", rounds)
    put("throtloop.z_std", statistics.pstdev(window.z_used), "ratio", rounds)
    plan = system.shedder.last_report.plan
    encode_s = timing.wall_time_samples(
        lambda: encode_frame("plan", {"plan": plan.to_dict()}), 20
    )
    put("framing.encode_plan_us", statistics.median(encode_s) * 1e6, "us", len(encode_s))
    put("framing.plan_frame_bytes", len(encode_frame("plan", {"plan": plan.to_dict()})), "B")
    put("loadtest.gen_cpu_frac", window.step_gen_s / window.seconds, "ratio")
    put("service.cpu_frac", sum(map(sum, clock.cpu.values())) / window.seconds, "ratio")
