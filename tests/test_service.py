"""Tests for the live service façade: framing, ingest semantics, the
adaptation loop, and the socket protocol end to end."""

import asyncio
import logging

import numpy as np
import pytest

from repro.core import LiraConfig
from repro.core.reduction import AnalyticReduction
from repro.faults import FaultInjector, FaultSpec
from repro.geo import Rect
from repro.queries import RangeQuery
from repro.server.cq_server import MobileCQServer
from repro.service import (
    Frame,
    FrameError,
    LiraService,
    ServiceConfig,
    decode_frame,
    encode_frame,
    read_frame,
)
from repro.service.framing import MAGIC, _PREFIX
from repro.timing import ManualClock

BOUNDS = Rect(0.0, 0.0, 1000.0, 1000.0)


def make_service(
    policy: str = "lira",
    n_nodes: int = 32,
    service_rate: float = 100.0,
    queue_capacity: int = 50,
    clock=None,
    faults: FaultInjector | None = None,
) -> LiraService:
    config = LiraConfig(l=4, alpha=8, delta_min=5.0, delta_max=100.0)
    return LiraService(
        bounds=BOUNDS,
        n_nodes=n_nodes,
        queries=[RangeQuery(query_id=0, rect=Rect(100.0, 100.0, 400.0, 400.0))],
        reduction=AnalyticReduction(5.0, 100.0),
        config=config,
        service_rate=service_rate,
        queue_capacity=queue_capacity,
        policy=policy,
        station_radius=800.0,
        faults=faults,
        clock=clock or ManualClock(start=100.0),
    )


def make_batch(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    ids = np.arange(n, dtype=np.int64)
    pos = rng.uniform(0.0, 1000.0, size=(n, 2))
    vel = rng.uniform(-5.0, 5.0, size=(n, 2))
    return ids, pos, vel


class TestFraming:
    def test_round_trip_with_arrays(self):
        ids, pos, vel = make_batch(7)
        payload = encode_frame(
            "ingest", {"seq": 3, "send_t": 1.5},
            {"node_ids": ids, "positions": pos, "velocities": vel},
        )
        frame = decode_frame(payload)
        assert frame.kind == "ingest"
        assert frame.meta == {"seq": 3, "send_t": 1.5}
        np.testing.assert_array_equal(frame.arrays["node_ids"], ids)
        np.testing.assert_allclose(frame.arrays["positions"], pos)
        np.testing.assert_allclose(frame.arrays["velocities"], vel)

    def test_round_trip_meta_only(self):
        frame = decode_frame(encode_frame("ping", {"seq": 1}))
        assert frame == Frame(kind="ping", meta={"seq": 1}, arrays={})

    def test_bad_magic_rejected(self):
        payload = bytearray(encode_frame("ping"))
        payload[:4] = b"XXXX"
        with pytest.raises(FrameError, match="magic"):
            decode_frame(bytes(payload))

    def test_truncated_frame_rejected(self):
        payload = encode_frame("ping", {"seq": 1})
        with pytest.raises(FrameError):
            decode_frame(payload[:-2])

    def test_oversized_declared_section_rejected(self):
        bogus = _PREFIX.pack(MAGIC, 2**31, 0)
        with pytest.raises(FrameError, match="MAX_SECTION_BYTES"):
            decode_frame(bogus)

    def test_header_must_carry_string_kind(self):
        header = b'{"meta": {}}'
        payload = _PREFIX.pack(MAGIC, len(header), 0) + header
        with pytest.raises(FrameError, match="kind"):
            decode_frame(payload)

    def test_stream_read_clean_eof_returns_none(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            return await read_frame(reader)

        assert asyncio.run(scenario()) is None

    def test_stream_read_mid_frame_eof_raises(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame("ping")[:-1])
            reader.feed_eof()
            return await read_frame(reader)

        with pytest.raises(FrameError, match="EOF"):
            asyncio.run(scenario())

    def test_stream_read_frame_round_trip(self):
        payload = encode_frame("stats", {"seq": 9})

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(payload + payload)
            reader.feed_eof()
            first = await read_frame(reader)
            second = await read_frame(reader)
            third = await read_frame(reader)
            return first, second, third

        first, second, third = asyncio.run(scenario())
        assert first.kind == second.kind == "stats"
        assert third is None


class TestIngestEquivalence:
    """An ingest frame must have exactly the effect of receive_reports."""

    def test_apply_ingest_matches_direct_server(self):
        service = make_service(queue_capacity=20)
        twin = MobileCQServer(
            BOUNDS,
            32,
            list(service.server.queries),
            service_rate=100.0,
            queue_capacity=20,
            batch_ingest=True,
        )
        for seed in range(3):
            ids, pos, vel = make_batch(12, seed=seed)
            t = 100.0 + seed
            # Round-trip through the wire format, then apply.
            frame = decode_frame(
                encode_frame(
                    "ingest",
                    {"seq": seed},
                    {"node_ids": ids, "positions": pos, "velocities": vel},
                )
            )
            service.apply_ingest(
                t,
                frame.arrays["node_ids"],
                frame.arrays["positions"],
                frame.arrays["velocities"],
            )
            twin.receive_reports(t, ids, pos, vel)
        service.server.process(10.0)
        twin.process(10.0)
        assert (
            service.server.queue.lifetime_enqueued
            == twin.queue.lifetime_enqueued
        )
        assert service.server.queue.lifetime_dropped == twin.queue.lifetime_dropped
        assert service.server.table.updates_applied == twin.table.updates_applied
        ours = service.server.evaluate_queries(103.0)
        theirs = twin.evaluate_queries(103.0)
        for a, b in zip(ours, theirs):
            np.testing.assert_array_equal(a, b)

    def test_overflow_is_reported_per_frame(self):
        service = make_service(queue_capacity=10)
        ids, pos, vel = make_batch(25)
        result = service.apply_ingest(100.0, ids, pos, vel)
        assert result.admitted == 10
        assert result.dropped == 15
        assert result.queue_length == 10

    def test_mark_tracks_applied_not_admitted(self):
        """Ack-after-apply: the mark completes only when the queue has
        *dequeued* past it, not when the reports were admitted."""
        service = make_service(service_rate=10.0, queue_capacity=50)
        ids, pos, vel = make_batch(20)
        result = service.apply_ingest(100.0, ids, pos, vel)
        assert result.mark == 20
        service.pump_once(1.0)  # 10 updates of capacity
        assert service.server.queue.lifetime_dequeued == 10
        assert service.server.queue.lifetime_dequeued < result.mark
        service.pump_once(1.0)
        assert service.server.queue.lifetime_dequeued >= result.mark

    def test_empty_admission_needs_no_mark(self):
        service = make_service(queue_capacity=5)
        ids, pos, vel = make_batch(5)
        service.apply_ingest(100.0, ids, pos, vel)
        result = service.apply_ingest(100.0, *make_batch(3, seed=1))
        assert result.admitted == 0
        assert result.mark is None


class TestPump:
    def test_idle_credit_is_not_banked(self):
        """A burst after a long idle stretch must not be served in
        zero time out of banked capacity."""
        service = make_service(service_rate=100.0)
        service.pump_once(10.0)  # 1000 updates of credit against an empty queue
        ids, pos, vel = make_batch(30)
        service.apply_ingest(100.0, ids, pos, vel)
        processed = service.server.process(0.0)
        assert processed <= 1  # only the fractional remainder survives

    def test_slowdown_fault_scales_capacity(self):
        faults = FaultInjector(
            FaultSpec(
                slowdown_prob=1.0, slowdown_factor=0.5, slowdown_duration=1e9
            ),
            seed=0,
        )
        service = make_service(service_rate=100.0, faults=faults)
        ids, pos, vel = make_batch(30)
        service.apply_ingest(100.0, ids, pos, vel)
        assert service.pump_once(0.2) == 10  # 100 * 0.5 * 0.2

    def test_clamp_requires_non_negative_cap(self):
        service = make_service()
        with pytest.raises(ValueError):
            service.server.clamp_service_credit(-1.0)


class TestAdaptation:
    def test_first_adapt_without_reports_installs_trivial_plan(self):
        service = make_service()
        plan = service.adapt_once()
        assert plan.num_regions == 1
        assert plan.thresholds[0] == service.config.delta_min
        assert service.network.version == 1

    def test_lira_plan_partitions_after_reports(self):
        service = make_service()
        ids, pos, vel = make_batch(32)
        service.apply_ingest(100.0, ids, pos, vel)
        service.pump_once(10.0)
        plan = service.adapt_once()
        assert plan.num_regions > 1
        assert service.plan is plan
        assert service.network.version == 1

    def test_random_drop_policy_always_trivial(self):
        service = make_service(policy="random-drop")
        ids, pos, vel = make_batch(32)
        service.apply_ingest(100.0, ids, pos, vel)
        service.pump_once(10.0)
        plan = service.adapt_once()
        assert plan.num_regions == 1
        assert plan.thresholds[0] == service.config.delta_min

    def test_throtloop_steps_from_measured_load(self):
        clock = ManualClock(start=100.0)
        service = make_service(service_rate=100.0, clock=clock)
        # Offer 4x the service rate over one second of pumping.
        for k in range(4):
            ids, pos, vel = make_batch(32, seed=k)
            service.apply_ingest(100.0 + 0.25 * k, ids, pos, vel)
            clock.advance(0.25)
            service.pump_once(0.25)
        service.adapt_once()
        assert service.shedder.current_z < 1.0

    def test_utilization_target_is_wired_through(self):
        service = make_service()
        assert service.shedder.throtloop.target_utilization == pytest.approx(0.8)
        assert service.shedder.throtloop.smoothing == pytest.approx(0.5)


class TestServiceConfig:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            ServiceConfig(policy="drop-everything")

    def test_workload_is_deterministic(self):
        a = ServiceConfig(workload_seed=3).queries()
        b = ServiceConfig(workload_seed=3).queries()
        assert [q.rect for q in a] == [q.rect for q in b]

    def test_build_produces_matching_scenario(self):
        cfg = ServiceConfig(n_nodes=10, queue_capacity=40, policy="random-drop")
        service = cfg.build(clock=ManualClock())
        assert service.policy == "random-drop"
        assert service.server.queue.capacity == 40
        assert service.n_nodes == 10


class TestSocketProtocol:
    """End-to-end over a real unix socket (real clock, short run)."""

    def test_ping_ingest_subscribe_stats(self, tmp_path):
        sock = str(tmp_path / "svc.sock")

        async def scenario():
            cfg = ServiceConfig(
                n_nodes=32,
                service_rate=400.0,
                queue_capacity=100,
                adapt_period=0.15,
                side=1000.0,
                station_radius=800.0,
                l=4,
                alpha=8,
            )
            service = cfg.build()
            await service.start(path=sock)
            try:
                reader, writer = await asyncio.open_unix_connection(sock)
                writer.write(encode_frame("ping", {"seq": 1}))
                await writer.drain()
                pong = await read_frame(reader)
                assert pong.kind == "pong"
                assert pong.meta["seq"] == 1

                writer.write(encode_frame("subscribe", {}))
                ids, pos, vel = make_batch(32)
                from repro.timing import monotonic

                t = monotonic()
                writer.write(
                    encode_frame(
                        "ingest",
                        {"seq": 2, "send_t": t},
                        {
                            "node_ids": ids,
                            "positions": pos,
                            "velocities": vel,
                            "times": np.full(ids.size, t),
                        },
                    )
                )
                await writer.drain()
                ack = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                assert ack.kind == "ingest-ack"
                assert ack.meta["admitted"] == 32
                assert ack.meta["done_t"] >= ack.meta["recv_t"]

                plan = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                assert plan.kind == "plan"
                assert plan.meta["version"] >= 1
                assert "plan" in plan.meta

                writer.write(encode_frame("stats", {"seq": 3}))
                await writer.drain()
                frame = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                while frame.kind in ("plan", "plan-subset"):
                    frame = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                assert frame.kind == "stats-reply"
                assert frame.meta["updates_applied"] == 32
                assert frame.meta["subscribers"] == 1
                # Hinted-vs-cold path counters: lifetime ≥ last round.
                for key in (
                    "memo_hits",
                    "memo_misses",
                    "gain_kernel_calls",
                    "gain_rows_solved",
                ):
                    assert frame.meta[key] >= frame.meta["last_round_" + key] >= 0
                assert frame.meta["memo_misses"] > 0
                writer.close()
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_unknown_kind_and_shape_mismatch_report_errors(self, tmp_path):
        sock = str(tmp_path / "svc2.sock")

        async def scenario():
            service = make_service()
            # make_service uses a ManualClock; the socket path needs no
            # real pumping for error frames.
            await service.start(path=sock)
            try:
                reader, writer = await asyncio.open_unix_connection(sock)
                writer.write(encode_frame("no-such-kind", {}))
                await writer.drain()
                err = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                assert err.kind == "error"
                assert "no-such-kind" in err.meta["message"]

                ids, pos, vel = make_batch(4)
                writer.write(
                    encode_frame(
                        "ingest",
                        {"seq": 1},
                        {
                            "node_ids": ids,
                            "positions": pos[:2],
                            "velocities": vel,
                        },
                    )
                )
                await writer.drain()
                err = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                assert err.kind == "error"
                assert "shape" in err.meta["message"]
                writer.close()
            finally:
                await service.stop()

        asyncio.run(scenario())


class TestBackgroundTaskSupervision:
    """A background loop that dies must be reported, and stop() must
    still shut the service down cleanly (regression for the bare
    create_task pair in start())."""

    def test_dead_pump_task_is_logged_and_stop_survives(self, tmp_path, caplog):
        sock = str(tmp_path / "dead.sock")

        def exploding_clock():
            raise RuntimeError("clock backend gone")

        async def scenario():
            service = make_service()
            await service.start(path=sock)
            # Kill the pump on its next wakeup: clock() is read outside
            # the per-iteration try, so the exception escapes the loop.
            service.clock = exploding_clock
            await asyncio.sleep(0.05)
            assert any(t.done() for t in service._tasks)
            await service.stop()
            assert service._tasks == []

        with caplog.at_level(logging.ERROR, logger="repro.service.service"):
            asyncio.run(scenario())
        messages = [r.getMessage() for r in caplog.records]
        assert any(
            "lira-service-pump" in m and "died" in m for m in messages
        ), messages

    def test_cancellation_on_stop_is_not_reported_as_death(self, tmp_path, caplog):
        sock = str(tmp_path / "quiet.sock")

        async def scenario():
            service = make_service()
            await service.start(path=sock)
            await asyncio.sleep(0.02)
            await service.stop()

        with caplog.at_level(logging.ERROR, logger="repro.service.service"):
            asyncio.run(scenario())
        assert not any("died" in r.getMessage() for r in caplog.records)

    def test_slow_callback_detector_lifecycle(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sock = str(tmp_path / "san.sock")

        async def scenario():
            service = make_service()
            await service.start(path=sock)
            try:
                assert service._slow_callback_detector is not None
                assert service._slow_callback_detector.installed
            finally:
                await service.stop()
            assert service._slow_callback_detector is None

        asyncio.run(scenario())
