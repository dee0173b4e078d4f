#!/usr/bin/env python
"""Perf regression harness: run the hot-path benchmarks, emit BENCH_10.json.

Collects several kinds of evidence:

1. Micro-benchmarks (``benchmarks/test_sim_kernel.py`` via
   pytest-benchmark): median ns per op for the simulation measurement
   tick (kernel and brute force), raw batch query evaluation, and the
   periodic adapt step.
2. Macro wall-clock: the MEDIUM z-sweep (Figure 4's simulation matrix,
   6 z-values x 4 policies) serial and through the parallel runner with
   ``--jobs 4``, compared against the recorded seed baseline.
3. Fault-injection seam: the SMALL systems loop without any injector,
   with a null-spec injector (must be free — it takes the same code
   path), and under a lossy spec (the cost of actually injecting).
4. Sharding: ``LiraSystem(n_shards=K)`` over identical frames —
   per-shard tick cost, coordinator overhead, and cross-shard handoff
   counts at K ∈ {1, 2, 4} (N=1M report config + an N=100k gate config
   CI re-measures).
5. Live service under overload: the asyncio service façade driven by
   the open-loop load harness over a unix socket at 4x offered load —
   LIRA (source shedding via THROTLOOP + plan push) vs random-drop
   (queue-overflow shedding only).  Ingest p99 latency against the
   declared SLO for both policies, with the overload contract asserted
   in-bench: LIRA must hold the SLO, random-drop must violate it, and
   the p99 ratio (random-drop / LIRA) is the gate metric.
6. Incremental adaptation: the steady-state adapt round under
   localized drift at the paper's default scale (l=250, α=128,
   N=20k) — incremental pipeline (dirty-cell refresh + gain memo +
   plan deltas) vs the full recompute, plans asserted bit-identical
   every round, plus the plan-broadcast bytes of delta installs vs
   full pushes (deterministic accounting).  Gates, both counted: gain
   rows solved ≥ 4x fewer than a cold GRIDREDUCE of the same grid, and
   broadcast-byte reduction ≥ 5x; the timed speedup is recorded and
   only regression-checked against the committed file.

The sections of earlier schemas that timed an object implementation
against its array twin (trace generation, cold scenario build, systems
loop, adapt path) left with the ``engine=`` switch: the object forms
are test oracles now (``tests/oracles``), checked for equality, not
speed.  The data path and the adapt rounds are measured by ``bench/``.

Usage::

    PYTHONPATH=src python scripts/bench_report.py [-o BENCH_10.json]
        [--skip-micro] [--skip-macro] [--skip-faults]
        [--skip-sharding] [--skip-service] [--skip-incremental]
        [--sharding-gate-only] [--no-regress-check]

The output schema is stable so future PRs can diff their numbers
against this file (see ``schema``).  When the output file already
exists (a committed baseline), the sharding gate, the live-service p99
ratio and the incremental-adapt gates are compared against it first and
the run fails fast on a regression — pass ``--no-regress-check`` to
record a new baseline regardless.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Wall-clock of the pre-kernel MEDIUM z-sweep (serial brute-force
#: measurement + unoptimized adapt step) measured on the same container
#: this report ships from.  Recorded once so speedups stay comparable.
SEED_MEDIUM_ZSWEEP_S = 10.5

MICRO_BENCHES = {
    "sim_measurement_tick_kernel": "test_sim_measurement_tick_kernel",
    "sim_measurement_tick_bruteforce": "test_sim_measurement_tick_bruteforce",
    "kernel_eval": "test_kernel_eval",
    "bruteforce_eval": "test_bruteforce_eval",
    "adapt_step": "test_adapt_step",
}


def run_micro() -> dict:
    """pytest-benchmark pass over the sim-kernel benchmarks, medians in ns."""
    with tempfile.TemporaryDirectory() as tmp:
        out_json = Path(tmp) / "bench.json"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            "benchmarks/test_sim_kernel.py",
            "-q",
            "--benchmark-only",
            f"--benchmark-json={out_json}",
        ]
        proc = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"benchmark run failed:\n{proc.stdout}\n{proc.stderr}"
            )
        data = json.loads(out_json.read_text())
    medians = {}
    for bench in data["benchmarks"]:
        bare = bench["name"].split("[", 1)[0]
        for key, test_name in MICRO_BENCHES.items():
            if bare == test_name:
                medians[key] = bench["stats"]["median"] * 1e9  # s -> ns
    missing = set(MICRO_BENCHES) - set(medians)
    if missing:
        raise RuntimeError(f"benchmarks missing from pytest output: {missing}")
    return medians


def run_macro(repeats: int = 2) -> dict:
    """MEDIUM z-sweep wall-clock, serial vs the parallel runner (--jobs 4)."""
    from repro.experiments.common import MEDIUM
    from repro.experiments.zsweep import run_zsweep
    from repro.queries import QueryDistribution

    from repro.metrics.cost import best_wall_seconds

    MEDIUM.scenario(distribution=QueryDistribution.PROPORTIONAL)  # warm cache

    def timed(jobs):
        return best_wall_seconds(
            lambda: run_zsweep(
                "mean_position_error",
                QueryDistribution.PROPORTIONAL,
                MEDIUM,
                jobs=jobs,
            ),
            repeats=repeats,
        )

    serial = timed(None)
    result = {
        "scale": "medium",
        "zs": 6,
        "policies": 4,
        "seed_serial_s": SEED_MEDIUM_ZSWEEP_S,
        "serial_s": round(serial, 3),
        "speedup_serial_vs_seed": round(SEED_MEDIUM_ZSWEEP_S / serial, 2),
    }
    from repro.experiments.runner import pool_is_profitable

    if pool_is_profitable(4, 24):
        parallel = timed(4)
        result.update(
            jobs=4,
            jobs4_s=round(parallel, 3),
            speedup_jobs4_vs_seed=round(SEED_MEDIUM_ZSWEEP_S / parallel, 2),
            note=(
                "--jobs N scales the (z x policy) matrix near-linearly "
                "with cores"
            ),
        )
    else:
        result["note"] = (
            "single-core host: run_jobs falls back to the serial loop (a "
            "pool would serialize the same work behind fork/pickle "
            "overhead, measured ~6% slower), so no parallel row is "
            "reported.  On multi-core hosts --jobs N scales the "
            "(z x policy) matrix near-linearly."
        )
    return result


def run_faults_bench(repetitions: int = 9) -> dict:
    """Systems-loop wall-clock across channel configurations (SMALL).

    The lossless default (``faults=None``) is the baseline; a null-spec
    injector must cost ~nothing on top of it (the seam short-circuits);
    the lossy spec shows what fault injection itself costs.

    Reported as median + IQR over interleaved repetitions rather than
    best-of: the earlier best-of-3 numbers swung the null-injector
    overhead between −9.4% and +6.5% across reports on the shared
    container — pure scheduling noise on a ~0 true difference.  The
    medians of interleaved samples (each config visited once per pass,
    so slow background episodes hit all configs alike) are stable
    enough to read, and the IQR makes the remaining noise visible in
    the report instead of laundering it into a point estimate.
    """
    import statistics

    from repro.experiments.common import SMALL
    from repro.experiments.resilience import run_system
    from repro.faults import FaultSpec
    from repro.metrics.cost import Stopwatch

    SMALL.scenario()  # warm the scenario cache out of the timed region

    specs = {
        "no_injector": None,
        "null_injector": FaultSpec(),
        "lossy_injector": FaultSpec(
            uplink_loss=0.2, uplink_delay=0.1, downlink_loss=0.2
        ),
    }
    samples: dict[str, list[float]] = {name: [] for name in specs}
    for _ in range(repetitions):
        for name, spec in specs.items():
            with Stopwatch() as stopwatch:
                run_system(SMALL, "lira", spec=spec)
            samples[name].append(stopwatch.elapsed)

    def summarize(values: list[float]) -> dict:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return {
            "median_s": round(statistics.median(values), 4),
            "iqr_s": round(q3 - q1, 4),
        }

    result: dict = {"scale": "small", "repetitions": repetitions}
    for name in specs:
        result[name] = summarize(samples[name])
    bare = result["no_injector"]["median_s"]
    result["null_overhead_pct"] = round(
        (result["null_injector"]["median_s"] / bare - 1.0) * 100.0, 2
    )
    result["lossy_overhead_pct"] = round(
        (result["lossy_injector"]["median_s"] / bare - 1.0) * 100.0, 2
    )
    result["lossy_spec"] = "uplink_loss=0.2 uplink_delay=0.1 downlink_loss=0.2"
    return result


#: Side / dt of the synthesized systems-loop scene (paper's 14 km square).
_SYNTH_SIDE = 14_000.0
_SYNTH_DT = 10.0


def _synth_frames(n_nodes: int, n_ticks: int, seed: int, dt: float = _SYNTH_DT):
    """Straight-line position frames over the synthesized scene."""
    import numpy as np

    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, _SYNTH_SIDE, (n_nodes, 2))
    velocities = rng.uniform(-30.0, 30.0, (n_nodes, 2))
    frames = []
    p = positions
    for _ in range(n_ticks):
        frames.append(p)
        p = np.clip(p + velocities * dt, 0.0, _SYNTH_SIDE)
    return frames, velocities


def _run_system_ticks(
    n_shards: int, frames, velocities, dt: float = _SYNTH_DT
) -> dict:
    """Run a ``LiraSystem(n_shards=K)`` over pre-built frames, timing ticks."""
    import numpy as np

    from repro.core import AnalyticReduction, LiraConfig
    from repro.geo import Rect
    from repro.metrics.cost import Stopwatch
    from repro.queries import QueryDistribution, generate_workload
    from repro.server import LiraSystem

    n_nodes = velocities.shape[0]
    bounds = Rect(0.0, 0.0, _SYNTH_SIDE, _SYNTH_SIDE)
    queries = generate_workload(
        bounds, 16, 500.0, QueryDistribution.PROPORTIONAL,
        frames[0], seed=17,
    )
    with Stopwatch() as boot_watch:
        system = LiraSystem(
            bounds=bounds,
            n_nodes=n_nodes,
            queries=queries,
            reduction=AnalyticReduction(5.0, 100.0),
            config=LiraConfig(l=13, alpha=32),
            service_rate=10.0 * n_nodes,
            station_radius=1500.0,
            adaptive_throttle=False,
            n_shards=n_shards,
        )
        system.set_throttle_fraction(0.5)
        system.bootstrap(frames[0], velocities)
        system.adapt(frames[0], np.hypot(velocities[:, 0], velocities[:, 1]))
    total_seconds = []
    shard_seconds = []
    coordinator_seconds = []
    for tick, positions in enumerate(frames):
        system.tick(tick * dt, positions, velocities, dt)
        per_shard = [shard.last_tick_seconds for shard in system.shards]
        total_seconds.append(system.last_tick_seconds)
        shard_seconds.append(per_shard)
        coordinator_seconds.append(system.last_tick_seconds - sum(per_shard))
    stats = system.stats()
    handoffs = system.total_cross_handoffs
    system.close()
    return {
        "bootstrap_s": boot_watch.elapsed,
        "total_seconds": total_seconds,
        "shard_seconds": shard_seconds,
        "coordinator_seconds": coordinator_seconds,
        "cross_shard_handoffs": handoffs,
        "stats": stats,
    }


def _sharding_config(n_nodes: int, n_ticks: int, ks, seed: int) -> dict:
    """One sharding measurement config: a K sweep over identical frames.

    ``ks`` starts at 1: the one-shard deployment is the reference the
    per-shard shrink is measured against.
    """
    import statistics

    # dt=1 s: a realistic CQ sampling period (30 m/s nodes move ≤30 m
    # per tick), so cross-shard migration rates — and therefore handoff
    # row-surgery cost — reflect deployment conditions rather than the
    # 300 m/tick jumps of the coarse 10 s demo frames.
    dt = 1.0
    frames, velocities = _synth_frames(n_nodes, n_ticks, seed, dt=dt)
    entry: dict = {"n_nodes": n_nodes, "ticks": n_ticks, "dt_s": dt}
    k1_shard_tick = None
    for k in ks:
        run = _run_system_ticks(k, frames, velocities, dt=dt)
        total_tick = statistics.median(run["total_seconds"])
        # Mean per-shard busy time per tick: the work one shard's server
        # does — the quantity that should shrink ~1/K.
        per_shard = statistics.median(
            [sum(row) / len(row) for row in run["shard_seconds"]]
        )
        coordinator = statistics.median(run["coordinator_seconds"])
        if k == 1:
            k1_shard_tick = per_shard
            # The K=1 whole tick: bench_trend's reference for the K=4 shard.
            entry["lira_system_tick_s"] = round(total_tick, 4)
        entry[f"k{k}"] = {
            "n_shards": k,
            "bootstrap_s": round(run["bootstrap_s"], 3),
            "total_tick_s": round(total_tick, 4),
            "per_shard_tick_s": round(per_shard, 4),
            "coordinator_s": round(coordinator, 4),
            "coordinator_overhead_pct": round(
                coordinator / total_tick * 100.0, 2
            ),
            "cross_shard_handoffs": run["cross_shard_handoffs"],
            "shard_shrink_vs_k1": (
                round(k1_shard_tick / per_shard, 2)
                if k1_shard_tick
                else None
            ),
        }
    return entry


def run_sharding_bench(gate_only: bool = False) -> dict:
    """K-shard systems loop: per-shard tick cost and coordinator overhead.

    The ``report`` config is the N=1M demonstration at K ∈ {1, 2, 4};
    the ``gate`` config is a cheaper N=100k run at K ∈ {1, 4} that CI
    re-measures against the committed baseline (ratio-based, so it
    holds on slower machines).  ``gate_only`` skips the N=1M sweep.
    """
    out: dict = {
        "gate": _sharding_config(100_000, 8, (1, 4), seed=21),
    }
    if not gate_only:
        out["report"] = _sharding_config(1_000_000, 6, (1, 2, 4), seed=19)
    return out


def _service_loadtest(
    policy: str,
    overload: float,
    duration: float,
    warmup: float,
    slo_p99_ms: float,
):
    """One open-loop run against an in-process service on a unix socket."""
    import asyncio

    from repro.loadtest import OpenLoopSchedule, run_loadtest
    from repro.metrics import SLOSpec
    from repro.service import ServiceConfig

    config = ServiceConfig(policy=policy)

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="lira-bench-") as tmp:
            sock = os.path.join(tmp, "lira.sock")
            service = config.build()
            await service.start(path=sock)
            try:
                schedule = OpenLoopSchedule.build(
                    bounds=config.bounds,
                    n_nodes=config.n_nodes,
                    duration=duration,
                    overload=overload,
                    service_rate=config.service_rate,
                    seed=0,
                )
                return await run_loadtest(
                    schedule,
                    slo=SLOSpec(name=f"ingest-{policy}", p99_ms=slo_p99_ms),
                    path=sock,
                    warmup_s=warmup,
                )
            finally:
                await service.stop()

    return asyncio.run(scenario())


def _service_policy_entry(report) -> dict:
    ingest = report.ingest
    dropped = report.reports_dropped
    sent = report.reports_sent
    return {
        "ingest_p50_ms": round(ingest.p50 * 1e3, 3),
        "ingest_p95_ms": round(ingest.p95 * 1e3, 3),
        "ingest_p99_ms": round(ingest.p99 * 1e3, 3),
        "samples": ingest.count,
        "slo_ok": report.ingest_slo.ok,
        "reports_sent": sent,
        "reports_dropped": dropped,
        "drop_rate": round(dropped / sent, 4) if sent else 0.0,
        "plans_received": report.plans_received,
        "plan_push_p99_ms": (
            round(report.plan.p99 * 1e3, 3) if report.plan else None
        ),
    }


def run_service_bench(
    overload: float = 4.0,
    duration: float = 12.0,
    warmup: float = 4.0,
    slo_p99_ms: float = 150.0,
) -> dict:
    """Live service + open-loop harness at 4x overload, both policies.

    The overload contract is asserted here, in the bench itself, on
    every report run: LIRA's source shedding must hold the ingest p99
    SLO while random-drop — whose queue sits pinned at capacity B, so
    every admitted update waits ~B/μ — must violate it.  The ratio of
    the two p99s is the gate metric CI re-measures (a ratio, so machine
    speed largely cancels; random-drop's p99 is set by B/μ, not CPU).
    """
    reports = {
        policy: _service_loadtest(
            policy, overload, duration, warmup, slo_p99_ms
        )
        for policy in ("lira", "random-drop")
    }
    for policy, report in reports.items():
        if report.ingest is None or report.ingest_slo is None:
            raise RuntimeError(
                f"service bench ({policy}): no post-warmup ingest samples"
            )
        if report.acks_missing:
            raise RuntimeError(
                f"service bench ({policy}): {report.acks_missing} ingest "
                "frames never acked"
            )
    lira, random_drop = reports["lira"], reports["random-drop"]
    if not lira.ingest_slo.ok:
        raise RuntimeError(
            f"service bench: LIRA violated its ingest SLO at "
            f"{overload:g}x overload — p99 "
            f"{lira.ingest.p99 * 1e3:.1f} ms > {slo_p99_ms:g} ms"
        )
    if random_drop.ingest_slo.ok:
        raise RuntimeError(
            "service bench: random-drop unexpectedly held the ingest SLO "
            f"at {overload:g}x overload — p99 "
            f"{random_drop.ingest.p99 * 1e3:.1f} ms; the overload contrast "
            "this report demonstrates has disappeared"
        )
    ratio = random_drop.ingest.p99 / lira.ingest.p99
    if ratio < 2.0:
        raise RuntimeError(
            f"service bench: p99 ratio random-drop/LIRA is only "
            f"{ratio:.2f}x (expected >= 2x)"
        )
    return {
        "scenario": (
            "ServiceConfig defaults: n=400 nodes, mu=1500/s, B=600, "
            "10 km square, l=13, alpha=16, unix socket"
        ),
        "overload": overload,
        "duration_s": duration,
        "warmup_s": warmup,
        "slo_p99_ms": slo_p99_ms,
        "lira": _service_policy_entry(lira),
        "random_drop": _service_policy_entry(random_drop),
        "p99_ratio_random_vs_lira": round(ratio, 2),
        "contract_asserted": True,
    }


#: What the gain memo must buy in the steady-state round, counted: gain
#: rows solved by a cold GRIDREDUCE of the same grid / rows solved by
#: the incremental round.  Deterministic (no clock), and it collapses
#: to ~1 when the memo is forced to miss.
MEMO_ROWS_FLOOR = 4.0


def _incremental_adapt_scenario(fairness: float | None, gated: bool) -> dict:
    """One steady-state drift run: incremental vs full adapt, byte account.

    Localized drift at the paper's default scale: each round jitters 30%
    of the nodes inside a fixed 3.2 km patch by ±120 m, leaving ~95% of
    the α=128 statistics grid untouched — the regime GRIDREDUCE's gain
    memo and the plan-delta wire format are built for.  Both shedders
    consume the *same* grids; plans are asserted bit-identical every
    round before any timing is read.  Broadcast bytes are counted from
    the first post-warmup round on two identical station networks, one
    fed full plans and one fed deltas — a deterministic quantity (pure
    region accounting, no wall clock), unlike the timed speedup.
    """
    import statistics

    import numpy as np

    from repro.core import (
        AnalyticReduction,
        LiraConfig,
        LiraLoadShedder,
        RegionHierarchy,
        StatisticsGrid,
        grid_reduce,
    )
    from repro.core.incremental import IncrementalGridReduceCache
    from repro.geo import Rect
    from repro.metrics.cost import Stopwatch
    from repro.queries import QueryDistribution, generate_workload
    from repro.server.base_station import place_uniform_stations
    from repro.server.protocol import BaseStationNetwork

    side = 10_000.0
    bounds = Rect(0.0, 0.0, side, side)
    n_nodes = 20_000
    patch = (3_000.0, 3_000.0, 6_200.0, 6_200.0)
    warm, rounds = 2, 10
    z = 0.6

    rng = np.random.default_rng(23)
    positions = rng.uniform(0.0, side, (n_nodes, 2))
    speeds = rng.uniform(0.5, 30.0, n_nodes)
    queries = generate_workload(
        bounds, 40, 800.0, QueryDistribution.PROPORTIONAL, positions, seed=11
    )
    config = LiraConfig(l=250, alpha=128, fairness=fairness)
    reduction = AnalyticReduction(5.0, 100.0)
    full = LiraLoadShedder(config, reduction)
    inc = LiraLoadShedder(config, reduction, incremental=True)
    full.set_throttle_fraction(z)
    inc.set_throttle_fraction(z)
    stations = place_uniform_stations(bounds, 1_500.0)
    net_full = BaseStationNetwork(list(stations))
    net_delta = BaseStationNetwork(list(stations))

    prev_plan = None
    prev_stats = None
    full_s: list[float] = []
    inc_s: list[float] = []
    dirty_fracs: list[float] = []
    # (kernel calls, rows solved) per measured round: the incremental
    # shedder's own, and a cold GRIDREDUCE of the same grid (untimed).
    steady_work: list[tuple[int, int]] = []
    cold_work: list[tuple[int, int]] = []
    # Final-solve (table entries built, horizon retries) per measured round.
    greedy_work: list[tuple[int, int]] = []
    geometry_resyncs = 0
    marks = (0, 0)
    for r in range(warm + rounds):
        if r:
            x1, y1, x2, y2 = patch
            in_patch = (
                (positions[:, 0] >= x1)
                & (positions[:, 0] < x2)
                & (positions[:, 1] >= y1)
                & (positions[:, 1] < y2)
            )
            idx = rng.choice(
                np.flatnonzero(in_patch),
                size=int(in_patch.sum() * 0.3),
                replace=False,
            )
            positions[idx] += rng.uniform(-120.0, 120.0, (idx.size, 2))
            np.clip(
                positions[idx],
                [x1, y1],
                [x2 - 1e-9, y2 - 1e-9],
                out=positions[idx],
            )
        grid = StatisticsGrid.from_snapshot(
            bounds, config.resolved_alpha, positions, speeds, queries
        )
        if prev_stats is not None:
            dirty = (
                (grid.n != prev_stats[0])
                | (grid.m != prev_stats[1])
                | (grid.s != prev_stats[2])
            )
            dirty_fracs.append(float(dirty.mean()))
        prev_stats = (grid.n.copy(), grid.m.copy(), grid.s.copy())
        with Stopwatch() as full_watch:
            plan_full = full.adapt(grid)
        with Stopwatch() as inc_watch:
            plan_inc = inc.adapt(grid)
        if len(plan_full.regions) != len(plan_inc.regions):
            raise RuntimeError(
                "incremental bench: partitions diverged at round "
                f"{r}: {len(plan_full.regions)} vs {len(plan_inc.regions)}"
            )
        for ref, cand in zip(plan_full.regions, plan_inc.regions):
            if (
                ref.rect != cand.rect
                or ref.delta != cand.delta
                or ref.n != cand.n
                or ref.m != cand.m
                or ref.s != cand.s
            ):
                raise RuntimeError(
                    f"incremental bench: plans diverged at round {r}: "
                    f"{ref} vs {cand}"
                )
        net_full.install_plan(plan_full, t=float(r))
        if plan_inc is not prev_plan:
            delta = prev_plan.diff(plan_inc) if prev_plan is not None else None
            if delta is None and prev_plan is not None and r >= warm:
                geometry_resyncs += 1
            net_delta.install_plan(plan_inc, t=float(r), delta=delta)
        prev_plan = plan_inc
        if r == warm - 1:
            marks = (
                net_full.total_broadcast_bytes,
                net_delta.total_broadcast_bytes,
            )
        if r >= warm:
            full_s.append(full_watch.elapsed)
            inc_s.append(inc_watch.elapsed)
            last = inc.session.gridreduce.counters()
            steady_work.append(
                (last["last_round_gain_kernel_calls"], last["last_round_gain_rows_solved"])
            )
            greedy_work.append(
                (
                    last["last_round_greedy_table_entries"],
                    last["last_round_greedy_horizon_retries"],
                )
            )
            cold = IncrementalGridReduceCache()
            grid_reduce(
                RegionHierarchy(grid), config.l, z, inc.reduction,
                increment=config.increment, use_speed=config.use_speed,
                cache=cold,
            )
            cold_work.append((cold.kernel_calls, cold.rows_solved))

    full_bytes = net_full.total_broadcast_bytes - marks[0]
    delta_bytes = net_delta.total_broadcast_bytes - marks[1]
    bytes_ratio = full_bytes / max(delta_bytes, 1)
    full_median = statistics.median(full_s)
    inc_median = statistics.median(inc_s)
    speedup = full_median / inc_median
    steady_calls, steady_rows = (statistics.median(col) for col in zip(*steady_work))
    cold_calls, cold_rows = (statistics.median(col) for col in zip(*cold_work))
    rows_ratio = cold_rows / max(steady_rows, 1)
    if gated and rows_ratio < MEMO_ROWS_FLOOR:
        raise RuntimeError(
            f"incremental bench: the steady-state round solved {steady_rows:g} "
            f"gain rows, the cold round {cold_rows:g} ({rows_ratio:.2f}x): the "
            f"memo must save at least {MEMO_ROWS_FLOOR:g}x"
        )
    if gated and bytes_ratio < 5.0:
        raise RuntimeError(
            f"incremental bench: broadcast-byte reduction {bytes_ratio:.2f}x "
            "is below the 5x contract (delta installs vs full pushes)"
        )
    cache = inc.session.gridreduce
    return {
        "fairness": fairness,
        "rounds": rounds,
        "full_adapt_ms": round(full_median * 1e3, 3),
        "incremental_adapt_ms": round(inc_median * 1e3, 3),
        "speedup_incremental_vs_full": round(speedup, 2),
        "median_dirty_cell_pct": round(
            statistics.median(dirty_fracs) * 100.0, 2
        ),
        "memo_hits": cache.hits,
        "memo_misses": cache.misses,
        "steady_kernel_calls_per_round": steady_calls,
        "steady_rows_solved_per_round": steady_rows,
        "cold_kernel_calls_per_round": cold_calls,
        "cold_rows_solved_per_round": cold_rows,
        "rows_reduction_vs_cold": round(rows_ratio, 2),
        "greedy_full_table_entries": config.l * config.n_segments,
        "greedy_table_entries_per_round": statistics.median(
            entries for entries, _ in greedy_work
        ),
        "greedy_horizon_retry_rounds": sum(retries for _, retries in greedy_work),
        "geometry_resyncs": geometry_resyncs,
        "full_push_bytes": full_bytes,
        "delta_push_bytes": delta_bytes,
        "bytes_reduction_vs_full": round(bytes_ratio, 2),
        "plans_identical": True,
        "gated": gated,
    }


def run_incremental_adapt_bench() -> dict:
    """Incremental adapt pipeline vs full recompute under localized drift.

    The ``uniform`` scenario (no fairness constraint) is the gated one:
    the counted memo saving (``MEMO_ROWS_FLOOR``) and broadcast-byte
    reduction ≥ 5x are asserted in-bench, with bit-identical plans
    checked every round; the timed speedup is recorded (its threshold
    is 25% under the committed recording, ``check_incremental_regression``).  The
    ``fairness`` variant re-measures the same drift with the fairness
    floor active (GREEDYINCREMENT does strictly more work per region,
    so the speedup is smaller) and is reported ungated.
    """
    return {
        "scenario": (
            "N=20k nodes, l=250, alpha=128, z=0.6, 10 km square, 40 "
            "queries; 30% of nodes in a fixed 3.2 km patch jittered "
            "+/-120 m per round (~5% dirty cells); 2 warmup + 10 "
            "measured rounds; stations at 1.5 km radius"
        ),
        "uniform": _incremental_adapt_scenario(fairness=None, gated=True),
        "fairness_50": _incremental_adapt_scenario(fairness=50.0, gated=False),
    }


#: Allowed shrinkage of a gated ratio vs the committed baseline before
#: the report run fails.  The gates are on *ratios*, not absolute
#: milliseconds, so they hold on machines slower or faster than the
#: recording container; run-to-run ratio noise is ~10%, a real
#: regression is far larger.
REGRESSION_TOLERANCE = 0.25


def check_sharding_regression(baseline_path: Path, measured: dict) -> None:
    """Fail fast if the K=4 per-shard shrink regressed vs the baseline.

    Gate metric: ``gate.k4.shard_shrink_vs_k1`` — how much one shard's
    per-tick work shrinks going K=1 → K=4 at N=100k.  A ratio of ratios,
    so machine speed cancels out exactly like the adapt-step gate.
    """
    if not baseline_path.exists():
        return
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, json.JSONDecodeError):
        return
    old = (
        baseline.get("sharding", {})
        .get("gate", {})
        .get("k4", {})
        .get("shard_shrink_vs_k1")
    )
    new = measured.get("gate", {}).get("k4", {}).get("shard_shrink_vs_k1")
    if not old or not new:
        return
    if new < old * (1.0 - REGRESSION_TOLERANCE):
        raise SystemExit(
            f"sharding regression: K=4 per-shard shrink {new:.2f}x is "
            f"{(1.0 - new / old) * 100.0:.1f}% below the committed "
            f"baseline {old:.2f}x in {baseline_path.name} (tolerance "
            f"{REGRESSION_TOLERANCE:.0%}).  Investigate before "
            "re-recording, or pass --no-regress-check to accept the new "
            "numbers."
        )


#: Allowed shrinkage of the live-service p99 ratio (random-drop /
#: LIRA) vs the committed baseline.  Wider than the kernel gates:
#: ingest latency on a shared container is noisier than a CPU-bound
#: speedup, and the in-bench SLO contract (LIRA holds, random-drop
#: violates) is the primary gate — this check only catches the contrast
#: quietly eroding while both sides still clear the SLO boundary.
SERVICE_REGRESSION_TOLERANCE = 0.5


def check_service_regression(baseline_path: Path, measured: dict) -> None:
    """Fail fast if the overload p99 contrast collapsed vs the baseline."""
    if not baseline_path.exists():
        return
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, json.JSONDecodeError):
        return
    old = baseline.get("live_service", {}).get("p99_ratio_random_vs_lira")
    new = measured.get("p99_ratio_random_vs_lira")
    if not old or not new:
        return
    if new < old * (1.0 - SERVICE_REGRESSION_TOLERANCE):
        raise SystemExit(
            f"live-service regression: p99 ratio random-drop/LIRA "
            f"{new:.2f}x is {(1.0 - new / old) * 100.0:.1f}% below the "
            f"committed baseline {old:.2f}x in {baseline_path.name} "
            f"(tolerance {SERVICE_REGRESSION_TOLERANCE:.0%}).  Investigate "
            "before re-recording, or pass --no-regress-check to accept "
            "the new numbers."
        )


def check_incremental_regression(baseline_path: Path, measured: dict) -> None:
    """Fail fast if the incremental-adapt contract eroded vs the baseline.

    Three gate metrics from the ``uniform`` scenario: the steady-state
    adapt speedup (a timing ratio — machine speed cancels), and two
    deterministic counts — gain rows the memo saves vs a cold round and
    the broadcast-byte reduction — where any shrink at all is a real
    change, but the shared tolerance keeps the check uniform.
    """
    if not baseline_path.exists():
        return
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, json.JSONDecodeError):
        return
    old_entry = baseline.get("incremental_adapt", {}).get("uniform", {})
    new_entry = measured.get("uniform", {})
    gates = (
        ("speedup_incremental_vs_full", "steady-state adapt speedup"),
        ("rows_reduction_vs_cold", "gain rows saved by the memo"),
        ("bytes_reduction_vs_full", "broadcast-byte reduction"),
    )
    for key, label in gates:
        old = old_entry.get(key)
        new = new_entry.get(key)
        if not old or not new:
            continue
        if new < old * (1.0 - REGRESSION_TOLERANCE):
            raise SystemExit(
                f"incremental-adapt regression: {label} {new:.2f}x is "
                f"{(1.0 - new / old) * 100.0:.1f}% below the committed "
                f"baseline {old:.2f}x in {baseline_path.name} (tolerance "
                f"{REGRESSION_TOLERANCE:.0%}).  Investigate before "
                "re-recording, or pass --no-regress-check to accept the "
                "new numbers."
            )


def machine_info() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default=str(REPO / "BENCH_10.json"))
    parser.add_argument("--skip-micro", action="store_true")
    parser.add_argument("--skip-macro", action="store_true")
    parser.add_argument("--skip-faults", action="store_true")
    parser.add_argument("--skip-sharding", action="store_true")
    parser.add_argument("--skip-service", action="store_true")
    parser.add_argument("--skip-incremental", action="store_true")
    parser.add_argument(
        "--sharding-gate-only",
        action="store_true",
        help="measure only the N=100k sharding gate config (CI), not "
        "the N=1M report sweep",
    )
    parser.add_argument(
        "--no-regress-check",
        action="store_true",
        help="record new numbers without comparing the gated ratios "
        "against the committed baseline",
    )
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args()

    report = {
        "schema": "lira-bench/10",
        "recorded": "2026-09-30",
        "machine": machine_info(),
    }
    if not args.skip_micro:
        medians = run_micro()
        report["median_ns"] = {k: round(v, 1) for k, v in sorted(medians.items())}
        report["speedups"] = {
            "sim_measurement_tick": round(
                medians["sim_measurement_tick_bruteforce"]
                / medians["sim_measurement_tick_kernel"],
                2,
            ),
            "query_eval": round(
                medians["bruteforce_eval"] / medians["kernel_eval"], 2
            ),
        }
    if not args.skip_macro:
        report["medium_zsweep"] = run_macro(repeats=args.repeats)
    if not args.skip_faults:
        report["fault_injection"] = run_faults_bench()
    if not args.skip_sharding:
        report["sharding"] = run_sharding_bench(
            gate_only=args.sharding_gate_only
        )
        if not args.no_regress_check:
            check_sharding_regression(Path(args.output), report["sharding"])
    if not args.skip_service:
        report["live_service"] = run_service_bench()
        if not args.no_regress_check:
            check_service_regression(Path(args.output), report["live_service"])
    if not args.skip_incremental:
        report["incremental_adapt"] = run_incremental_adapt_bench()
        if not args.no_regress_check:
            check_incremental_regression(
                Path(args.output), report["incremental_adapt"]
            )

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
