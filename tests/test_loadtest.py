"""Tests for the open-loop load harness: schedule determinism, profile
shapes, and short end-to-end runs against a live in-process service."""

import asyncio
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.geo import Rect
from repro.loadtest import LoadProfile, OpenLoopSchedule, run_loadtest
from repro.metrics import SLOSpec
from repro.service import ServiceConfig
from repro.timing import Stopwatch

BOUNDS = Rect(0.0, 0.0, 2000.0, 2000.0)


def build_schedule(seed: int = 0, profile: LoadProfile | None = None, **kwargs):
    defaults = dict(
        bounds=BOUNDS,
        n_nodes=40,
        duration=4.0,
        overload=2.0,
        service_rate=400.0,
        seed=seed,
        profile=profile,
    )
    defaults.update(kwargs)
    return OpenLoopSchedule.build(**defaults)


class TestScheduleReproducibility:
    def test_same_seed_same_schedule(self):
        a = build_schedule(seed=11)
        b = build_schedule(seed=11)
        np.testing.assert_array_equal(a.offsets, b.offsets)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.velocities, b.velocities)

    def test_different_seed_differs(self):
        a = build_schedule(seed=1)
        b = build_schedule(seed=2)
        assert not np.array_equal(a.offsets, b.offsets)
        assert not np.array_equal(a.positions, b.positions)

    def test_offsets_computed_up_front_never_closed_loop(self):
        """The whole send schedule exists before the run starts."""
        schedule = build_schedule()
        assert schedule.offsets.shape == (schedule.n_ticks,)
        assert schedule.positions.shape == (schedule.n_ticks, schedule.n_nodes, 2)
        assert schedule.velocities.shape == schedule.positions.shape


class TestScheduleShape:
    def test_offsets_strictly_increasing_from_zero(self):
        schedule = build_schedule()
        assert schedule.offsets[0] == 0.0
        assert np.all(np.diff(schedule.offsets) > 0)
        assert schedule.duration < 4.0 + schedule.base_gap

    def test_overload_sizes_the_base_gap(self):
        schedule = build_schedule(overload=4.0)
        # Unthrottled offered rate = n_nodes / base_gap = overload * mu.
        assert schedule.base_gap == pytest.approx(40 / (4.0 * 400.0))

    def test_constant_profile_gap_within_jitter(self):
        schedule = build_schedule()
        gaps = np.diff(schedule.offsets)
        assert np.all(gaps >= schedule.base_gap * 0.95 - 1e-12)
        assert np.all(gaps <= schedule.base_gap * 1.05 + 1e-12)

    def test_burst_profile_has_fast_windows(self):
        profile = LoadProfile(name="burst", factor=4.0, burst_every=2.0, burst_len=0.5)
        schedule = build_schedule(profile=profile)
        gaps = np.diff(schedule.offsets)
        assert gaps.min() < schedule.base_gap / 2.0
        assert gaps.max() > schedule.base_gap * 0.9

    def test_flash_crowd_rate_jumps_after_ramp(self):
        profile = LoadProfile(name="flash-crowd", factor=4.0, ramp_at=0.5)
        schedule = build_schedule(profile=profile)
        mid = schedule.duration / 2.0
        before = np.diff(schedule.offsets[schedule.offsets < mid])
        after = np.diff(schedule.offsets[schedule.offsets > mid])
        assert after.mean() < before.mean() / 2.0

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            LoadProfile(name="sawtooth")


class TestWanderTrace:
    def test_positions_stay_in_bounds(self):
        schedule = build_schedule()
        assert schedule.positions[..., 0].min() >= BOUNDS.x1
        assert schedule.positions[..., 0].max() <= BOUNDS.x2
        assert schedule.positions[..., 1].min() >= BOUNDS.y1
        assert schedule.positions[..., 1].max() <= BOUNDS.y2

    def test_speeds_constant_per_node(self):
        schedule = build_schedule()
        speeds = np.hypot(
            schedule.velocities[..., 0], schedule.velocities[..., 1]
        )
        np.testing.assert_allclose(
            speeds, np.broadcast_to(speeds[0], speeds.shape), rtol=1e-9
        )

    def test_velocities_are_time_compressed(self):
        schedule = build_schedule()
        assert schedule.time_scale == pytest.approx(
            schedule.dt_sim / schedule.base_gap
        )
        wall_speeds = np.hypot(
            schedule.velocities[0, :, 0], schedule.velocities[0, :, 1]
        )
        # Sim speeds were drawn from [10, 30] m/s before scaling.
        assert wall_speeds.min() >= 10.0 * schedule.time_scale - 1e-9
        assert wall_speeds.max() <= 30.0 * schedule.time_scale + 1e-9


def run_live(
    policy: str,
    sock: str,
    slowdown: bool = False,
    overload: float = 3.0,
    adapt_period: float = 0.25,
    duration: float = 4.0,
):
    """Short end-to-end run: in-process service + loadtest client."""

    async def scenario():
        cfg = ServiceConfig(
            side=2000.0,
            n_nodes=40,
            n_queries=6,
            query_side=500.0,
            service_rate=400.0,
            queue_capacity=160,
            policy=policy,
            adapt_period=adapt_period,
            station_radius=1600.0,
            l=4,
            alpha=8,
            slowdown_prob=1.0 if slowdown else 0.0,
            slowdown_factor=0.15,
            slowdown_duration=1e9,
        )
        service = cfg.build()
        await service.start(path=sock)
        try:
            schedule = OpenLoopSchedule.build(
                bounds=cfg.bounds,
                n_nodes=cfg.n_nodes,
                duration=duration,
                overload=overload,
                service_rate=cfg.service_rate,
                seed=3,
            )
            return await run_loadtest(
                schedule,
                slo=SLOSpec(name=f"ingest-{policy}", p99_ms=150.0),
                path=sock,
                warmup_s=2.0,
            )
        finally:
            await service.stop()

    return asyncio.run(scenario())


class TestLiveRuns:
    def test_lira_run_produces_full_accounting(self, tmp_path):
        report = run_live("lira", str(tmp_path / "lt.sock"))
        assert report.frames_sent > 0
        assert report.acks_received == report.frames_sent
        assert report.acks_missing == 0
        assert report.ingest is not None and report.ingest.count > 0
        assert report.plans_received > 0
        assert report.server_stats["policy"] == "lira"
        doc = report.to_dict()
        assert doc["ingest_latency"]["count"] == report.ingest.count
        assert doc["ingest_slo"]["slo"] == "ingest-lira"

    def test_plan_answering_subscribe_is_no_push_sample(self, tmp_path):
        """The plan installed at start answers ``subscribe``: its age is
        no push latency, so with no adapt round in the run, no plan
        latency is reported."""
        report = run_live("lira", str(tmp_path / "sub.sock"), adapt_period=60.0, duration=1.0)
        assert report.plans_received == 1
        assert report.plan is None

    def test_slo_accounting_flags_injected_slowdown(self, tmp_path):
        """A server pinned at 15% capacity cannot hold the ingest SLO
        even at 1x offered load; the report must say so."""
        report = run_live(
            "lira", str(tmp_path / "slow.sock"), slowdown=True, overload=1.0
        )
        assert report.ingest is not None
        assert report.ingest_slo is not None
        assert not report.ingest_slo.ok
        assert "p99_ms" in report.ingest_slo.violations

    def test_random_drop_sheds_at_queue_not_sources(self, tmp_path):
        """Random drop keeps sources unthrottled: clients send far more
        than LIRA's and overflow drops appear at the server queue."""
        lira = run_live("lira", str(tmp_path / "a.sock"))
        random_drop = run_live("random-drop", str(tmp_path / "b.sock"))
        assert random_drop.reports_sent > lira.reports_sent
        assert random_drop.reports_dropped > lira.reports_dropped
        # The overload contract in units of B/μ (160 / 400 per s): random
        # drop's queue sits pinned at capacity, so an admitted report
        # waits ≈ 400 ms whatever the CPU, and the 150 ms SLO is lost;
        # LIRA's sources shed before the queue fills.
        assert not random_drop.ingest_slo.ok
        assert random_drop.ingest.p50 >= 0.8 * 160 / 400.0
        assert random_drop.ingest.p99 >= 2 * lira.ingest.p99


class TestCheckExitCode:
    """``--check`` fails on a violated SLO and on any refused frame."""

    @pytest.mark.parametrize(
        ("slo_ok", "protocol_errors", "check", "code"),
        [
            (True, 0, True, 0),
            (False, 0, True, 1),
            (True, 1, True, 1),
            (True, 1, False, 0),
        ],
    )
    def test_exit_code(self, monkeypatch, capsys, slo_ok, protocol_errors, check, code):
        from repro.loadtest import __main__ as cli

        async def fake_run(args):
            return {
                "ingest_slo": {"ok": slo_ok},
                "server_stats": {"protocol_errors": protocol_errors},
            }

        monkeypatch.setattr(cli, "run", fake_run)
        assert cli.main(["--port", "1"] + ["--check"] * check) == code
        assert '"protocol_errors"' in capsys.readouterr().out


def test_spawned_service_that_exits_before_listening_fails_at_once(monkeypatch):
    """``--spawn`` waits on the service's ``listening`` line, so a service
    that dies first ends the run as soon as it exits, with its exit status,
    instead of being retried until a connect timeout."""
    from repro.loadtest import __main__ as cli

    monkeypatch.setenv("PYTHONPATH", str(Path(repro.__file__).resolve().parents[1]))
    with Stopwatch() as watch, pytest.raises(RuntimeError, match="exited with status 1 "):
        cli.main(["--spawn", "--adapt-period", "-1", "--duration", "1"])
    assert watch.elapsed < 5.0
