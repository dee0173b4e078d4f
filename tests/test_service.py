"""Tests for the live service façade: framing, ingest semantics, the
adaptation loop, and the socket protocol end to end."""

import asyncio
import copy
import importlib
import logging
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import LiraConfig, SheddingPlan
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
from repro.shedding import POLICIES
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


class FakeWriter:
    """The slice of ``asyncio.WriteTransport`` the dispatch path touches,
    with an unread backlog the test sets."""

    def __init__(self):
        self.payloads: list[bytes] = []
        self.buffered = 0

    def write(self, payload: bytes) -> None:
        self.payloads.append(payload)

    def is_closing(self) -> bool:
        return False

    def get_write_buffer_size(self) -> int:
        return self.buffered

    def frames(self) -> list[Frame]:
        return [decode_frame(payload) for payload in self.payloads]


def ingest_frame(ids, pos, vel, times=None, seq=0, **extra) -> Frame:
    """An ingest frame as the service receives it: decoded off the wire."""
    arrays = {"node_ids": ids, "positions": pos, "velocities": vel, **extra}
    if times is not None:
        arrays["times"] = times
    return decode_frame(encode_frame("ingest", {"seq": seq, "send_t": 0.0}, arrays))


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


def _bad(**overrides):
    """make_batch(4) as ingest arrays, with some replaced or removed."""
    ids, pos, vel = make_batch(4)
    arrays = {"node_ids": ids, "positions": pos, "velocities": vel, "times": np.full(4, 100.0)}
    arrays.update(overrides)
    return {name: value for name, value in arrays.items() if value is not None}


def _poked(array, value):
    out = np.array(array, dtype=np.float64)
    out.flat[-1] = value
    return out


_IDS, _POS, _VEL = make_batch(4)
INGEST_FAULTS = {
    "nan-position": ("non-finite", _bad(positions=_poked(_POS, np.nan))),
    "inf-velocity": ("non-finite", _bad(velocities=_poked(_VEL, np.inf))),
    "nan-time": ("non-finite", _bad(times=_poked(np.full(4, 100.0), np.nan))),
    "id-past-the-table": ("id-out-of-range", _bad(node_ids=np.array([0, 1, 2, 32]))),
    "id-negative": ("id-out-of-range", _bad(node_ids=np.array([0, -1, 2, 3]))),
    "id-huge-unsigned": ("id-out-of-range", _bad(node_ids=np.array([0, 1, 2, 2**63], np.uint64))),
    "ids-float": ("bad-dtype", _bad(node_ids=_IDS.astype(np.float64))),
    "ids-bool": ("bad-dtype", _bad(node_ids=np.ones(4, dtype=bool))),
    "positions-float32": ("bad-dtype", _bad(positions=_POS.astype(np.float32))),
    "velocities-int": ("bad-dtype", _bad(velocities=_VEL.astype(np.int64))),
    "times-int": ("bad-dtype", _bad(times=np.full(4, 100))),
    "ids-2d": ("bad-shape", _bad(node_ids=_IDS.reshape(2, 2))),
    "positions-short": ("bad-shape", _bad(positions=_POS[:2])),
    "positions-flat": ("bad-shape", _bad(positions=_POS.reshape(-1))),
    "velocities-wide": ("bad-shape", _bad(velocities=np.zeros((4, 3)))),
    "times-short": ("bad-shape", _bad(times=np.full(3, 100.0))),
    "missing-velocities": ("missing-array", _bad(velocities=None)),
    "unknown-array": ("unknown-array", _bad(payload=np.zeros(1000))),
}


class TestIngestValidation:
    """A frame the views would let poison the table is refused whole."""

    @pytest.mark.parametrize("reason,arrays", INGEST_FAULTS.values(), ids=INGEST_FAULTS.keys())
    def test_refused_frame_leaves_no_trace(self, reason, arrays):
        service = make_service()
        writer = FakeWriter()
        frame = decode_frame(encode_frame("ingest", {"seq": 1}, arrays))
        service._dispatch(frame, writer)
        (reply,) = writer.frames()
        assert reply.kind == "error" and "ingest" in reply.meta["message"]
        server = service.server
        assert len(server.queue) == 0 and not server.table.known_mask.any()
        assert (server.queue.lifetime_enqueued, server.queue.lifetime_dropped) == (0, 0)
        assert server.take_load_measurement().arrivals == 0
        assert (service.counters.ingest_frames, service.counters.reports_received) == (0, 0)
        assert service.counters.acks_sent == 0 and not service._pending
        stats = service.stats_meta()
        assert stats["protocol_errors"] == 1
        assert stats["protocol_errors_by_reason"] == {reason: 1}
        # The connection stays usable: the same client's next good frame lands.
        service.clock.advance(1.0)
        service._dispatch(ingest_frame(*make_batch(4)), writer)
        assert writer.frames()[-1].kind == "ingest-ack"
        assert server.table.updates_applied == 4

    def test_accepted_dtypes_and_the_empty_batch(self):
        service = make_service()
        writer = FakeWriter()
        ids, pos, vel = make_batch(4)
        for seq, node_ids in enumerate((ids.astype(np.int32), ids.astype(np.uint8), ids[:0])):
            k = node_ids.size
            service.clock.advance(1.0)
            service._dispatch(ingest_frame(node_ids, pos[:k], vel[:k], seq=seq), writer)
        assert [f.kind for f in writer.frames()] == ["ingest-ack"] * 3
        assert service.counters.protocol_errors == 0
        assert service.stats_meta()["protocol_errors_by_reason"] == {}

    def test_reasons_accumulate_across_kinds_of_error(self):
        service = make_service()
        writer = FakeWriter()
        service._dispatch(Frame(kind="no-such-kind", meta={}), writer)
        for _ in range(2):
            service._dispatch(ingest_frame(*make_batch(4), payload=np.zeros(1)), writer)
        assert service.counters.protocol_errors == 3
        assert service.protocol_errors_by_reason == {"unknown-kind": 1, "unknown-array": 2}


def root_buffer(array: np.ndarray):
    """The non-ndarray object at the end of ``array``'s ``base`` chain."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return base.obj if isinstance(base, memoryview) else base


class TestRetention:
    """Zero-copy batches: what the queue pins is what it admitted."""

    def test_one_of_n_admit_releases_the_frame_buffer(self):
        import gc
        import weakref

        service = make_service(service_rate=1.0, queue_capacity=5)
        service.apply_ingest(100.0, *make_batch(4))
        frame = ingest_frame(*make_batch(30, seed=1), times=np.full(30, 100.0))
        views = [weakref.ref(array) for array in frame.arrays.values()]
        service._dispatch(frame, FakeWriter())
        assert service.server.queue.lifetime_enqueued == 5  # 1 of 30 admitted
        for column in service.server.queue._chunks[-1]:
            assert column.shape[0] == 1 and column.base is None  # owns its one row
        del frame
        gc.collect()
        # Nothing holds a view of the body any more, so the body itself
        # (only reachable through those views) is collectable.
        assert [ref() for ref in views] == [None] * 4

    def test_full_admit_pins_exactly_the_body(self):
        service = make_service(service_rate=1.0, queue_capacity=50)
        ids, pos, vel = make_batch(8)
        payload = encode_frame(
            "ingest", {"seq": 0},
            {"node_ids": ids, "positions": pos, "velocities": vel, "times": np.full(8, 100.0)},
        )

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(payload)
            return await read_frame(reader)

        service._dispatch(asyncio.run(scenario()), FakeWriter())
        _, header_len, body_len = _PREFIX.unpack_from(payload)
        assert body_len == 8 * 48
        for column in service.server.queue._chunks[-1]:
            body = root_buffer(column)
            assert type(body) is bytes and len(body) == body_len  # no header, no prefix


TICK = 1.0 / 64.0


class TestArrivalDrivenDrain:
    """The ingest dispatch pumps; the timer only drains a backlog.

    Everything runs on a ManualClock with dyadic times and rates, so
    the queue model's arithmetic is exact and runs can be compared bit
    for bit.
    """

    def test_spare_capacity_acks_inside_the_dispatch(self):
        clock = ManualClock(start=100.0)
        service = make_service(service_rate=4096.0, clock=clock)
        writer = FakeWriter()
        clock.advance(TICK)  # 64 updates of capacity since the last pump
        service._dispatch(ingest_frame(*make_batch(20), seq=7), writer)
        (ack,) = writer.frames()
        assert ack.kind == "ingest-ack" and ack.meta["seq"] == 7
        assert ack.meta["admitted"] == 20
        assert ack.meta["done_t"] == ack.meta["recv_t"] == clock()
        assert not service._pending
        counters = service.counters
        assert (counters.acks_sent, counters.acks_inline, counters.acks_deferred) == (1, 1, 0)
        assert service.server.table.updates_applied == 20
        assert service.stats_meta()["acks_inline"] == 1

    def test_backlog_defers_the_ack_until_the_mark_is_passed(self):
        clock = ManualClock(start=100.0)
        service = make_service(service_rate=256.0, clock=clock)  # 4 updates per TICK
        writer = FakeWriter()
        queue = service.server.queue
        clock.advance(TICK)
        service._dispatch(ingest_frame(*make_batch(10), seq=0), writer)
        assert queue.lifetime_dequeued == 4 and len(service._pending) == 1
        assert writer.payloads == []
        # The timer gets there first for frame 0 ...
        clock.advance(TICK)
        assert service._pump(clock()) == 0 and queue.lifetime_dequeued == 8
        clock.advance(TICK)
        assert service._pump(clock()) == 1
        assert [f.meta["seq"] for f in writer.frames()] == [0]
        assert writer.frames()[0].meta["done_t"] == 100.0 + 3 * TICK
        # ... and a later arrival's drain gets there first for frame 1:
        # frame 2 brings the capacity that finishes frame 1, not its own.
        service._dispatch(ingest_frame(*make_batch(3, seed=1), seq=1), writer)
        clock.advance(TICK)
        service._dispatch(ingest_frame(*make_batch(3, seed=2), seq=2), writer)
        assert [f.meta["seq"] for f in writer.frames()] == [0, 1]
        assert [p.meta["seq"] for p in service._pending] == [2]
        counters = service.counters
        assert (counters.acks_sent, counters.acks_inline) == (2, 1)
        # Deferred acks are counted by the timer loop; _pump only reports them.
        clock.advance(TICK)
        assert service._pump(clock()) == 1 and not service._pending

    def test_fully_dropped_frame_is_acked_at_once_and_grants_nothing(self):
        clock = ManualClock(start=100.0)
        service = make_service(service_rate=256.0, queue_capacity=5, clock=clock)
        writer = FakeWriter()
        service._dispatch(ingest_frame(*make_batch(5)), writer)
        clock.advance(TICK / 2)
        before = service._last_pump_t
        service._dispatch(ingest_frame(*make_batch(3, seed=1), seq=9), writer)
        (ack,) = writer.frames()
        assert (ack.meta["seq"], ack.meta["admitted"], ack.meta["dropped"]) == (9, 0, 3)
        assert service._last_pump_t == before and service.counters.acks_inline == 1

    @staticmethod
    def _arrivals():
        """(tick, offset within the tick, batch): a trickle with several
        arrivals per tick, then one overflowing burst per tick, then idle."""
        out = []
        for tick in range(0, 6):
            for part in (1, 5, 11):
                out.append((tick, part * TICK / 16, make_batch(2, seed=tick * 16 + part)))
        for tick in range(6, 14):
            out.append((tick, 3 * TICK / 8, make_batch(30, seed=tick)))
        out.append((30, TICK / 4, make_batch(6, seed=99)))
        return out

    def _run(self, inline: bool):
        clock = ManualClock(start=100.0)
        service = make_service(service_rate=256.0, queue_capacity=40, clock=clock)
        writer = FakeWriter()
        arrivals = self._arrivals()
        trail = []
        for tick in range(36):
            for _, offset, (ids, pos, vel) in (a for a in arrivals if a[0] == tick):
                clock.now = 100.0 + tick * TICK + offset
                times = np.full(ids.size, clock())
                if inline:
                    service._dispatch(ingest_frame(ids, pos, vel, times), writer)
                else:  # the parent's dispatch: enqueue, leave the pumping to the timer
                    service.apply_ingest(clock(), ids, pos, vel, times=times)
            clock.now = 100.0 + (tick + 1) * TICK
            service._pump(clock())
            state = self._state(service)
            if tick % 9 == 8:
                state["measurement"] = service.server.take_load_measurement()
            trail.append(state)
        return service, trail

    @staticmethod
    def _state(service):
        server, queue, table = service.server, service.server.queue, service.server.table
        return {
            "queue": (len(queue), queue.lifetime_enqueued, queue.lifetime_dropped,
                      queue.lifetime_dequeued),
            "applied": (table.updates_applied, table.updates_discarded),
            "credit": server._service_credit,
            "period_time": server._period_time,
            "table": (table._pos.copy(), table._vel.copy(), table._time.copy(),
                      table._known.copy()),
        }

    def test_inline_drain_is_the_same_queue_model(self):
        inline_service, inline = self._run(inline=True)
        timer_service, timer = self._run(inline=False)
        for tick, (a, b) in enumerate(zip(inline, timer, strict=True)):
            for key in ("queue", "applied", "credit", "period_time"):
                assert a[key] == b[key], (tick, key)
            assert a.get("measurement") == b.get("measurement"), tick
            for x, y in zip(a["table"], b["table"], strict=True):
                np.testing.assert_array_equal(x, y)
        # The run exercised overflow, backlog and idle, and both ack paths.
        assert inline[-1]["queue"][2] > 0 and inline[-1]["queue"][0] == 0
        # Granted capacity sums to elapsed time (the last tick closes a period).
        assert sum(s["measurement"].period for s in inline if "measurement" in s) == 36 * TICK
        counters = inline_service.counters
        assert counters.acks_inline > 0 and len(inline_service._pending) == 0
        assert counters.acks_sent == counters.ingest_frames > counters.acks_inline
        assert timer_service.counters.acks_sent == 0

    @pytest.mark.parametrize("frames_per_tick", [0, 1, 5])
    def test_fault_stream_depends_on_timer_pumps_only(self, frames_per_tick):
        spec = FaultSpec(slowdown_prob=0.25, slowdown_factor=0.5, slowdown_duration=0.0)
        faults = FaultInjector(spec, seed=3)
        clock = ManualClock(start=100.0)
        service = make_service(service_rate=4096.0, clock=clock, faults=faults)
        writer = FakeWriter()
        ticks = 40
        factors = []
        for tick in range(ticks):
            for part in range(frames_per_tick):
                clock.now = 100.0 + tick * TICK + (part + 1) * TICK / 8
                service._dispatch(ingest_frame(*make_batch(3, seed=tick)), writer)
                assert service._rate_factor == (factors[-1] if factors else 1.0)
            clock.now = 100.0 + (tick + 1) * TICK
            service._pump(clock())
            factors.append(service._rate_factor)
        # duration 0 => every service_factor() call draws exactly once.
        reference = FaultInjector(spec, seed=3)
        assert factors == [reference.service_factor(0.0) for _ in range(ticks)]
        assert (
            faults._server_rng.bit_generator.state == reference._server_rng.bit_generator.state
        )
        assert 0 < faults.counters.slow_ticks < ticks

    @staticmethod
    def _schedule():
        """The arrivals above plus single reports while the queue is empty
        (each drained by its own dispatch, so a parked timer stays
        parked), two adaptations (the first inside an idle gap) and
        ``stats`` reads inside the backlog, the overflow and the gaps."""
        arrivals = [(tick, offset, *batch) for tick, offset, batch in TestArrivalDrivenDrain._arrivals()]
        arrivals += [(tick, TICK / 4, *make_batch(1, seed=tick)) for tick in (25, 27, 33, 41)]
        reads = [(26, 3 * TICK / 8, "adapt"), (45, 5 * TICK / 8, "adapt")]
        reads += [(tick, TICK / 2, "stats") for tick in (3, 8, 11, 13, 20, 31, 46)]
        return arrivals, reads

    @pytest.mark.parametrize("slowdown_prob", [0.0, 0.25])
    def test_parked_timer_replays_to_the_always_on_state(self, monkeypatch, slowdown_prob):
        monkeypatch.setattr("repro.service.service.PUMP_PERIOD", TICK)
        arrivals, reads = self._schedule()
        on, asleep = (run_timer(s, arrivals, reads, 48, 40, 5 if slowdown_prob else None)
                      for s in (False, True))
        assert_same_trail(on, asleep)
        # The sleeping timer slept through idle and busy ticks, readers
        # replayed several at once, and the run still saw backlog,
        # overflow and both adaptations.
        counters = asleep.service.counters
        busy_ticks = sum(1 for state in on.trail if state["queue"][0])
        assert counters.timer_pumps < busy_ticks and max(asleep.replayed) >= 4
        assert len(asleep.measured) == 2 and asleep.trail[-1]["queue"][2] > 0
        assert counters.acks_deferred > 0 and counters.acks_inline > 0
        assert counters.acks_sent == counters.acks_inline + counters.acks_deferred
        assert sum(m.period for m in asleep.measured) == 45 * TICK
        if slowdown_prob:
            assert 0 < asleep.service.faults.counters.slow_ticks


class TestSleepingTimerProperty:
    """The timer contract over generated schedules: arrivals at any
    offset inside a tick, batches up to overflow, idle gaps, ``adapt`` and
    ``stats`` reads, several queue capacities and slowdown seeds."""

    OFFSETS = st.integers(1, 15).map(lambda k: k * TICK / 16)

    @staticmethod
    @st.composite
    def schedules(draw):
        ticks = draw(st.integers(8, 24))
        capacity = draw(st.sampled_from([8, 24, 40]))
        tick = st.integers(0, ticks - 1)
        arrivals = draw(st.lists(st.tuples(tick, TestSleepingTimerProperty.OFFSETS,
                                           st.integers(1, capacity + 8)), max_size=16))
        reads = draw(st.lists(st.tuples(tick, TestSleepingTimerProperty.OFFSETS,
                                        st.sampled_from(["adapt", "stats"])), max_size=6))
        fault_seed = draw(st.none() | st.integers(0, 3))
        batches = [(t, offset, *make_batch(n, seed=i)) for i, (t, offset, n) in enumerate(arrivals)]
        return batches, reads, ticks, capacity, fault_seed

    @settings(max_examples=40, deadline=None)
    @given(schedule=schedules())
    def test_sleeping_timer_matches_the_always_on_timer(self, schedule):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr("repro.service.service.PUMP_PERIOD", TICK)
            on, asleep = (run_timer(s, *schedule) for s in (False, True))
        assert_same_trail(on, asleep)
        assert asleep.service.counters.protocol_errors == 0


#: What a ``stats`` reply reports of the queue model (the rest counts
#: wire activity, timer wakes included).
STATS_MODEL_KEYS = (
    "queue_length", "lifetime_enqueued", "lifetime_dropped", "lifetime_dequeued",
    "updates_applied", "updates_discarded", "drop_rate", "period_drop_rate", "z", "acks_sent",
)


def run_timer(sleeping: bool, arrivals, reads, ticks: int, capacity: int, fault_seed):
    """Drive one service through a schedule on a ManualClock.

    ``arrivals`` are ``(tick, offset, ids, pos, vel)`` and ``reads``
    ``(tick, offset, "adapt" | "stats")``, every offset inside its tick.
    The timer ticks at every TICK (``sleeping=False``: the always-on
    timer) or wakes only at the tick it armed, as ``_pump_loop`` does.
    The trail is read at every tick through a copy that first replays
    what a sleeping timer skipped, as any reader of the server would.
    """
    clock = ManualClock(start=100.0)
    faults = None
    if fault_seed is not None:
        spec = FaultSpec(slowdown_prob=0.25, slowdown_factor=0.5, slowdown_duration=2.5 * TICK)
        faults = FaultInjector(spec, seed=fault_seed)
    service = make_service(n_nodes=64, service_rate=256.0, queue_capacity=capacity, clock=clock,
                           faults=faults)
    if sleeping:  # what _pump_loop does when it starts
        service._tick_t = service._last_pump_t = clock()
        service._due_t = clock() + TICK
    out = SimpleNamespace(service=service, writer=FakeWriter(), trail=[], measured=[], zs=[],
                          stats=[], replayed=[])
    observe = service.shard.observe_load
    service.shard.observe_load = lambda: out.measured.append(observe()) or out.measured[-1]
    events = sorted([(a[0], a[1], "ingest", a[2:]) for a in arrivals]
                    + [(r[0], r[1], r[2], None) for r in reads], key=lambda e: e[:2])
    for tick in range(ticks):
        for _, offset, kind, batch in (e for e in events if e[0] == tick):
            clock.now = 100.0 + tick * TICK + offset
            before = service._tick_t
            if kind == "ingest":
                ids, pos, vel = batch
                frame = ingest_frame(ids, pos, vel, np.full(ids.size, clock()))
                service._dispatch(frame, out.writer)
            elif kind == "adapt":
                service.adapt_once()
                out.zs.append(service.shedder.current_z)
            else:
                meta = service.stats_meta()
                out.stats.append({key: meta[key] for key in STATS_MODEL_KEYS})
            if before is not None:
                out.replayed.append((service._tick_t - before) / TICK)
        clock.now = 100.0 + (tick + 1) * TICK
        if not sleeping:
            service._pump(clock())
        elif service._due_t is not None and service._due_t <= clock():
            service._timer_pump(clock())
        probe = copy.deepcopy(service)
        LiraService._replay_skipped_ticks(probe, clock())
        state = TestArrivalDrivenDrain._state(probe)
        state["rate_factor"] = probe._rate_factor
        if faults is not None:
            state["faults"] = (probe.faults._server_rng.bit_generator.state,
                               probe.faults._slow_until, probe.faults.counters.slow_ticks)
        out.trail.append(state)
    return out


def assert_same_trail(on, asleep):
    """The always-on timer's run and the sleeping one's agree at every
    tick, in every measurement and adapted z, every ``stats`` reply and
    every ack (its ``done_t`` included)."""
    for tick, (a, b) in enumerate(zip(on.trail, asleep.trail, strict=True)):
        assert a.keys() == b.keys()
        for key in sorted(a.keys() - {"table"}):
            assert a[key] == b[key], (tick, key)
        for x, y in zip(a["table"], b["table"], strict=True):
            np.testing.assert_array_equal(x, y)
    assert on.measured == asleep.measured and on.zs == asleep.zs
    assert on.stats == asleep.stats
    assert on.writer.payloads == asleep.writer.payloads


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

    @pytest.mark.parametrize("policy, regions", [("lira-grid", 4), ("uniform", 1)])
    def test_every_table_policy_serves_its_plan(self, policy, regions):
        """The shard installs whatever plan its policy serves, so the
        service runs each policy of the table, not LIRA or Random Drop only."""
        service = make_service(policy=policy)
        ids, pos, vel = make_batch(32)
        service.apply_ingest(100.0, ids, pos, vel)
        service.pump_once(10.0)
        plan = service.adapt_once()
        assert service.plan is plan is service.shard.policy.plan
        assert plan.num_regions == regions
        assert service.shedder.last_report is None  # it only sets z

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
        stats = service.stats_meta()
        assert stats["last_round_gain_table_entries"] > 0
        assert stats["gain_table_entries"] >= stats["last_round_gain_table_entries"]

    def test_unloaded_round_builds_no_gain_tables(self):
        """At z = 1 every CALCERRGAIN row's budget is already met: the
        gain kernel solves rows but builds no GREEDYINCREMENT table."""
        service = make_service()
        ids, pos, vel = make_batch(32)
        service.apply_ingest(100.0, ids, pos, vel)
        service.pump_once(10.0)
        service.adapt_once()
        stats = service.stats_meta()
        assert stats["z"] == 1.0
        assert stats["last_round_gain_rows_solved"] > 0
        assert stats["last_round_gain_table_entries"] == 0

    def test_utilization_target_is_wired_through(self):
        service = make_service()
        assert service.shedder.throtloop.target_utilization == pytest.approx(0.8)
        assert service.shedder.throtloop.smoothing == pytest.approx(0.5)


#: The ``stats`` reply's keys: a reply may add keys, never drop one.
STATS_KEYS = frozenset({
    "acks_deferred", "acks_inline", "acks_sent", "delta_plans_pushed", "drop_rate",
    "gain_head_entries", "gain_horizon_retries", "gain_kernel_calls", "gain_rows_solved",
    "gain_table_entries", "greedy_head_entries", "greedy_horizon", "greedy_horizon_retries",
    "greedy_table_entries", "ingest_frames", "last_round_gain_head_entries",
    "last_round_gain_horizon_retries", "last_round_gain_kernel_calls",
    "last_round_gain_rows_solved", "last_round_gain_table_entries",
    "last_round_greedy_head_entries", "last_round_greedy_horizon_retries",
    "last_round_greedy_table_entries", "last_round_memo_hits", "last_round_memo_misses",
    "lifetime_dequeued", "lifetime_dropped", "lifetime_enqueued", "memo_hits", "memo_misses",
    "period_drop_rate", "plan_broadcast_bytes", "plan_epoch", "plan_frames_encoded",
    "plan_pushes_dropped", "plan_pushes_skipped", "plan_regions", "plan_version",
    "plans_computed", "plans_pushed", "policy", "protocol_errors",
    "protocol_errors_by_reason", "queue_capacity", "queue_length", "reports_received",
    "service_rate", "subscribers", "timer_pumps", "updates_applied", "updates_discarded", "z",
})


class TestStatsReply:
    def test_reply_keeps_every_pinned_key(self):
        assert len(STATS_KEYS) == 52
        service = make_service()
        assert service.stats_meta().keys() >= STATS_KEYS
        service.adapt_once()
        assert service.stats_meta().keys() >= STATS_KEYS

    def test_period_drop_rate_covers_the_arrivals_since_the_last_adapt(self):
        clock = ManualClock(start=100.0)
        service = make_service(service_rate=100.0, queue_capacity=50, clock=clock)
        ids, pos, vel = make_batch(32)
        # An overloaded round: 64 arrivals into 50 slots.
        for _ in range(2):
            service.apply_ingest(clock(), ids, pos, vel)
        stats = service.stats_meta()
        assert stats["period_drop_rate"] == stats["drop_rate"] == 14 / 64
        service.adapt_once()
        # A drop-free round: the queue drains, then 5 reports all fit.
        clock.advance(1.0)
        service.pump_once(1.0)
        service.apply_ingest(clock(), *make_batch(5, seed=1))
        stats = service.stats_meta()
        assert stats["period_drop_rate"] == 0.0
        assert stats["drop_rate"] == 14 / 69
        service.adapt_once()
        service.apply_ingest(clock(), ids, pos, vel)
        service.apply_ingest(clock(), ids, pos, vel)
        assert service.stats_meta()["period_drop_rate"] == 19 / 64


class TestControlStepIsTheLoops:
    """``adapt_once`` is the shard's control step on believed state: fed
    the same reports, the service and ``LiraSystem``'s shard agree on the
    plan, the ``PlanDelta`` and the stations that saw new content."""

    def _twin(self, service):
        from repro.server import LiraSystem

        system = LiraSystem(
            bounds=BOUNDS,
            n_nodes=service.n_nodes,
            queries=list(service.server.queries),
            reduction=AnalyticReduction(5.0, 100.0),
            config=service.config,
            service_rate=service.server.service_rate,
            queue_capacity=service.server.queue.capacity,
            station_radius=800.0,
            incremental=True,
        )
        for name in ("utilization_target", "smoothing"):
            setattr(
                system.shedder.throtloop, name, getattr(service.shedder.throtloop, name)
            )
        return system.shards[0]

    def test_same_snapshot_same_plan_delta_and_delivered_set(self):
        clock = ManualClock(start=100.0)
        service = make_service(n_nodes=64, service_rate=200.0, clock=clock)
        loop = self._twin(service)
        returned = []
        step = service.shard.control_step

        def recording_step(*args):
            returned.append(step(*args))
            return returned[-1]

        service.shard.control_step = recording_step
        rng = np.random.default_rng(4)
        ids, pos, _ = make_batch(64)
        still = np.zeros_like(pos)  # zero velocity: belief moves only on a report
        outcomes = set()
        for round_ in range(9):
            now = clock()
            if round_ % 3:  # every third round nothing new was reported
                pos = np.clip(pos + rng.normal(0.0, 60.0, pos.shape), 0.0, 999.0)
                service.apply_ingest(now, ids, pos, still)
                loop.server.receive_reports(now, ids, pos, still)
                service.pump_once(1.0, 1.0)
                loop.server.process(1.0)
                assert len(loop.server.queue) == 0
                loop.server.clamp_service_credit()
            want_plan, want_delta, want_delivered = loop.control_step(
                *service._believed(now), now
            )
            plan = service.adapt_once()
            got_plan, got_delta, got_delivered = returned[-1]
            # The service adds nothing to what the control step returned...
            assert plan is got_plan is service.plan
            assert service._plan_dirty == (got_delivered is not None)
            if got_delivered is not None:
                assert service._last_delta is got_delta
                assert service._changed_stations == (
                    frozenset(got_delivered) if got_delta is not None else None
                )
            # ...and the loop's shard, fed the same snapshot, returns the same.
            assert got_plan.to_dict() == want_plan.to_dict()
            assert (got_delta and got_delta.to_dict()) == (
                want_delta and want_delta.to_dict()
            )
            assert (got_delivered and sorted(got_delivered)) == (
                want_delivered and sorted(want_delivered)
            )
            assert service.shedder.current_z == loop.shedder.current_z
            outcomes.add(
                "skip" if got_delivered is None else "delta" if got_delta else "full"
            )
            clock.advance(0.5)
        assert outcomes == {"full", "delta", "skip"}


class TestSendBudget:
    """A subscriber that stopped reading costs a bounded buffer: pushes to
    it are withheld and counted, and it is resynced in full afterwards."""

    def _service(self):
        from repro.service.service import _Subscriber

        clock = ManualClock(start=100.0)
        service = make_service(n_nodes=64, service_rate=200.0, clock=clock)
        stalled, healthy = FakeWriter(), FakeWriter()
        service._subscribers = [_Subscriber(writer=stalled), _Subscriber(writer=healthy)]
        return service, clock, stalled, healthy

    def _push_rounds(self, service, clock, rng, want, limit=40):
        """Adapt + push on drifting reports until a push of kind ``want``
        ("plan" or "plan-delta") went out; the kinds of every push made."""
        ids, pos, _ = make_batch(64, seed=int(rng.integers(1 << 30)))
        kinds = []
        for _ in range(limit):
            pos = np.clip(pos + rng.normal(0.0, 15.0, pos.shape), 0.0, 999.0)
            service.apply_ingest(clock(), ids, pos, np.zeros_like(pos))
            service.pump_once(1.0, 1.0)
            service.adapt_once()
            if service._plan_dirty:
                kinds.append("plan-delta" if service._last_delta is not None else "plan")
            service._push_plan()
            clock.advance(0.5)
            if kinds and kinds[-1] == want:
                return kinds
        raise AssertionError(f"no {want} push in {limit} rounds: {kinds}")

    def test_stalled_subscriber_gets_nothing_then_a_full_resync(self):
        from repro.service.service import SEND_BUDGET_BYTES

        service, clock, stalled, healthy = self._service()
        rng = np.random.default_rng(6)
        self._push_rounds(service, clock, rng, "plan")
        assert [f.kind for f in stalled.frames()] == ["plan"]
        # At the budget is still inside it; one byte more is not.
        stalled.buffered = SEND_BUDGET_BYTES
        self._push_rounds(service, clock, rng, "plan-delta")
        assert stalled.frames()[-1].kind == "plan-delta"
        assert service.counters.plan_pushes_dropped == 0
        received = len(stalled.payloads)
        stalled.buffered = SEND_BUDGET_BYTES + 1
        missed = self._push_rounds(service, clock, rng, "plan-delta")
        assert len(stalled.payloads) == received  # not one byte
        assert service.counters.plan_pushes_dropped == len(missed)
        assert service.stats_meta()["plan_pushes_dropped"] == len(missed)
        assert service._subscribers[0].epoch is None
        # It reads again: the next push is a delta for the subscriber that
        # kept up, and a full plan for the one that missed its base.
        stalled.buffered = 0
        after = self._push_rounds(service, clock, rng, "plan-delta")
        caught_up = stalled.frames()[received:]
        assert caught_up[0].kind == "plan"
        assert [f.kind for f in caught_up[1:]] == after[1:]
        assert service._subscribers[0].epoch == service.plan.epoch
        assert service.counters.plan_pushes_dropped == len(missed)
        # The subscriber under budget never noticed.
        pushes = [f.kind for f in healthy.frames()]
        assert pushes[-len(missed + after):] == missed + after
        assert len(pushes) == service.counters.plans_pushed - len(stalled.payloads)

    def test_station_subscriber_that_missed_a_push_is_not_skipped_as_unchanged(self):
        from repro.service.service import SEND_BUDGET_BYTES, _Subscriber

        service, clock, _, _ = self._service()
        writer = FakeWriter()
        station_id = service.network.stations[0].station_id
        service._subscribers = [_Subscriber(writer=writer, station_id=station_id)]
        rng = np.random.default_rng(7)
        self._push_rounds(service, clock, rng, "plan")
        assert [f.kind for f in writer.frames()] == ["plan-subset"]
        writer.buffered = SEND_BUDGET_BYTES + 1
        self._push_rounds(service, clock, rng, "plan-delta")
        assert len(writer.payloads) == 1 and service.counters.plan_pushes_dropped >= 1
        # A later push whose delta leaves this station's subset alone
        # would normally skip it; it still owes it the content it missed.
        writer.buffered = 0
        service._plan_dirty, service._changed_stations = True, frozenset()
        skipped = service.counters.plan_pushes_skipped
        service._push_plan()
        assert [f.kind for f in writer.frames()] == ["plan-subset"] * 2
        service._push_plan()  # level again: unchanged means skipped
        assert len(writer.payloads) == 2
        assert service.counters.plan_pushes_skipped == skipped + 1


class TestServiceConfig:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            ServiceConfig(policy="drop-everything")
        # A service built without a config: its shard refuses it.
        with pytest.raises(ValueError, match="policy"):
            make_service(policy="drop-everything")

    def test_clis_take_their_policies_from_the_one_table(self):
        from repro.loadtest.__main__ import build_parser as loadtest_parser
        from repro.service.__main__ import build_parser as service_parser

        for parser in (service_parser(), loadtest_parser()):
            (action,) = [a for a in parser._actions if a.dest == "policy"]
            assert tuple(action.choices) == tuple(POLICIES)

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
            # The first plan's load period held no service time: THROTLOOP's
            # first sample is still the first period of traffic.
            assert service.shedder.throtloop._smoothed_utilization is None
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
                # start() installed a plan before it bound, so the reply to
                # subscribe is that plan, ahead of the ingest's ack.
                plan = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                assert plan.kind == "plan"
                assert plan.meta["version"] >= 1
                assert "plan" in plan.meta
                ack = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                assert ack.kind == "ingest-ack"
                assert ack.meta["admitted"] == 32
                assert ack.meta["done_t"] >= ack.meta["recv_t"]

                # The adapt loop's next round plans over those reports.
                plan = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                assert plan.kind == "plan"

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
                    "gain_table_entries",
                    "gain_head_entries",
                    "gain_horizon_retries",
                    "greedy_table_entries",
                    "greedy_head_entries",
                    "greedy_horizon_retries",
                ):
                    assert frame.meta[key] >= frame.meta["last_round_" + key] >= 0
                assert frame.meta["memo_misses"] > 0
                writer.close()
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_first_reply_to_subscribe_is_a_plan(self, tmp_path):
        """A fresh service holds a plan before any peer can connect: the
        first frame a subscriber reads is the plan start() installed, not
        one the adapt loop pushes a period later."""
        sock = str(tmp_path / "first.sock")

        async def scenario():
            service = make_service()  # ManualClock: no time passes
            service.adapt_period = 3600.0  # and the adapt loop never fires
            await service.start(path=sock)
            try:
                reader, writer = await asyncio.open_unix_connection(sock)
                writer.write(encode_frame("subscribe", {}))
                writer.write(encode_frame("stats", {"seq": 1}))
                first = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                stats = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                writer.close()
                return service, first, stats
            finally:
                await service.stop()

        service, first, stats = asyncio.run(scenario())
        assert first.kind == "plan"
        plan = SheddingPlan.from_dict(first.meta["plan"])
        # No reports yet: the trivial one-region plan at Δ⊢.
        assert plan.num_regions == 1 and plan.regions[0].delta == 5.0
        assert service.counters.plans_computed == 1
        assert stats.kind == "stats-reply"
        assert stats.meta["plan_epoch"] == plan.epoch == service.plan.epoch

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

    def test_zero_copy_ingest_and_lcq1_refusal_over_a_real_socket(self, tmp_path):
        """The counted wire contract CI checks: what the server decodes
        off a socket is aligned, read-only views into the connection's
        receive buffer — the next frame lands in the same buffer when the
        last left nothing queued — each frame is acked inside its own
        dispatch, and an LCQ1 peer is told to go."""
        sock = str(tmp_path / "wire.sock")
        ids, pos, vel = make_batch(32)
        received: list[dict] = []

        def seen(frame, writer):
            """What a dispatched frame is, read while it is dispatched."""
            roots = {id(root_buffer(a)) for a in frame.arrays.values()}
            root = root_buffer(frame.arrays["node_ids"])
            whole = np.frombuffer(root, dtype=np.uint8)
            return {
                "values": {name: a.copy() for name, a in frame.arrays.items()},
                "views": all(a.flags.aligned and not a.flags.writeable and not a.flags.owndata
                             and np.shares_memory(a, whole) for a in frame.arrays.values()),
                "roots": roots, "root": root, "receive_buffer": writer.get_protocol()._buf,
            }

        async def scenario():
            service = ServiceConfig(
                n_nodes=32, service_rate=1e9, side=1000.0, station_radius=800.0, l=4, alpha=8
            ).build()
            dispatch = service._dispatch
            service._dispatch = lambda frame, writer: (received.append(seen(frame, writer)),
                                                       dispatch(frame, writer))
            await service.start(path=sock)
            try:
                reader, writer = await asyncio.open_unix_connection(sock)
                await asyncio.sleep(0.02)  # let some pump capacity elapse
                for seq in (5, 6):
                    payload = encode_frame(
                        "ingest", {"seq": seq, "send_t": 0.0},
                        {"node_ids": ids, "positions": pos, "velocities": vel,
                         "times": np.zeros(32)},
                    )
                    writer.write(payload)
                    ack = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                    assert (ack.kind, ack.meta["seq"], ack.meta["admitted"]) == ("ingest-ack", seq, 32)
                    assert len(service.server.queue) == 0  # nothing left queued
                assert service.counters.acks_inline == 2
                assert service.counters.acks_deferred == 0
                writer.close()

                reader, writer = await asyncio.open_unix_connection(sock)
                old = payload.replace(MAGIC, b"LCQ1", 1)
                writer.write(old)
                err = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                assert err.kind == "error" and "magic" in err.meta["message"]
                assert await asyncio.wait_for(read_frame(reader), timeout=5.0) is None
                assert service.protocol_errors_by_reason == {"bad-frame": 1}
                assert service.counters.ingest_frames == 2
                writer.close()
            finally:
                await service.stop()

        asyncio.run(scenario())
        first, second = received
        for frame in (first, second):
            for name, sent in (("node_ids", ids), ("positions", pos), ("velocities", vel)):
                np.testing.assert_array_equal(frame["values"][name], sent)
            assert frame["views"]
            assert frame["roots"] == {id(frame["root"])}  # one buffer, never concatenated
            assert type(frame["root"]) is bytearray and frame["root"] is frame["receive_buffer"]
        assert second["root"] is first["root"]  # received into the same buffer

    def test_tcp_listener_receives_a_frame_larger_than_the_receive_buffer(self):
        """The TCP listener serves the same connections: a frame past the
        initial receive buffer lands whole, between two small ones."""
        from repro.service.service import RECV_BUFFER_BYTES

        n = RECV_BUFFER_BYTES // 48 + 100
        rng = np.random.default_rng(3)
        arrays = {"node_ids": rng.integers(0, 32, n), "positions": rng.uniform(0, 1000, (n, 2)),
                  "velocities": rng.uniform(-5, 5, (n, 2)), "times": np.zeros(n)}

        async def scenario():
            service = ServiceConfig(
                n_nodes=32, service_rate=1e9, queue_capacity=10 * n, side=1000.0,
                station_radius=800.0, l=4, alpha=8,
            ).build()
            await service.start(port=0)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", service.bound_port)
                await asyncio.sleep(0.02)  # pump capacity for the whole batch
                writer.write(encode_frame("ping", {"seq": 1})
                             + encode_frame("ingest", {"seq": 2, "send_t": 0.0}, arrays)
                             + encode_frame("ping", {"seq": 3}))
                replies = [await asyncio.wait_for(read_frame(reader), timeout=5.0)
                           for _ in range(3)]
                assert [(f.kind, f.meta["seq"]) for f in replies] == [
                    ("pong", 1), ("ingest-ack", 2), ("pong", 3)]
                assert replies[1].meta["admitted"] == n
                assert service.protocol_errors_by_reason == {}
                writer.close()
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_oversized_prefix_and_eof_inside_a_frame_are_bad_frames(self, tmp_path):
        """A prefix declaring more than ``MAX_SECTION_BYTES`` is refused
        before the receive buffer grows; a peer that closes inside a frame
        costs one ``bad-frame``.  Each connection is then closed."""
        from repro.service.framing import MAX_SECTION_BYTES
        from repro.service.service import RECV_BUFFER_BYTES

        sock = str(tmp_path / "bad.sock")

        async def connect(service):
            reader, writer = await asyncio.open_unix_connection(sock)
            while len(service._connections) != 1:
                await asyncio.sleep(0.001)
            (connection,) = service._connections
            return reader, writer, connection

        async def scenario():
            service = make_service()
            await service.start(path=sock)
            try:
                reader, writer, connection = await connect(service)
                writer.write(_PREFIX.pack(MAGIC, 8, MAX_SECTION_BYTES + 1))
                err = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                assert err.kind == "error" and "MAX_SECTION_BYTES" in err.meta["message"]
                assert await asyncio.wait_for(read_frame(reader), timeout=5.0) is None
                assert len(connection._buf) == RECV_BUFFER_BYTES
                writer.close()

                reader, writer, _ = await connect(service)
                writer.write(encode_frame("ping", {"seq": 1}) + encode_frame("ping")[:-3])
                writer.write_eof()
                pong = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                err = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                assert (pong.kind, err.kind) == ("pong", "error")
                assert "EOF inside a frame" in err.meta["message"]
                assert await asyncio.wait_for(read_frame(reader), timeout=5.0) is None
                assert service.protocol_errors_by_reason == {"bad-frame": 2}
                writer.close()
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_idle_service_parks_its_timer_until_a_backlog(self, tmp_path):
        """An idle service runs no timer pumps (an always-on 5 ms timer
        runs ≈ 50 in the quarter second); one frame larger than the queue
        leaves a backlog, which wakes the timer to drain it and ack."""
        sock = str(tmp_path / "idle.sock")

        async def scenario():
            service = ServiceConfig(
                n_nodes=64, service_rate=2_000.0, queue_capacity=40, adapt_period=0.1,
                side=1000.0, station_radius=800.0, l=4, alpha=8,
            ).build()
            await service.start(path=sock)
            try:
                reader, writer = await asyncio.open_unix_connection(sock)
                await asyncio.sleep(0.05)  # the first tick finds the queue empty
                idle_from = service.counters.timer_pumps
                await asyncio.sleep(0.25)
                assert service.counters.timer_pumps == idle_from
                ids, pos, vel = make_batch(64)
                writer.write(encode_frame(
                    "ingest", {"seq": 1, "send_t": 0.0},
                    {"node_ids": ids, "positions": pos, "velocities": vel},
                ))
                ack = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                assert (ack.kind, ack.meta["admitted"], ack.meta["dropped"]) == ("ingest-ack", 40, 24)
                # The dispatch drains at most one period's 10 updates: the
                # rest went out on timer pumps, and the ack with them.
                assert service.counters.acks_deferred == 1
                assert len(service.server.queue) == 0
                assert service.counters.timer_pumps > idle_from
                writer.write(encode_frame("stats", {"seq": 2}))
                stats = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                assert stats.meta["timer_pumps"] == service.counters.timer_pumps
                writer.close()
            finally:
                await service.stop()

        asyncio.run(scenario())


class TestStalledPeers:
    """Peers that stop reading, over a real unix socket: what they cost the
    service is bounded, and they cannot keep it from shutting down."""

    @staticmethod
    def _service():
        return ServiceConfig(
            n_nodes=32, service_rate=1e9, side=1000.0, station_radius=800.0, l=4, alpha=8
        ).build()

    def test_stop_returns_and_drops_connections_that_stopped_reading(self, tmp_path):
        """Since Python 3.12.1 ``wait_closed()`` waits for every open
        connection: ``stop()`` must close them, and a subscriber with
        replies buffered for it would never let a ``close()`` finish."""
        sock = str(tmp_path / "stop.sock")

        async def scenario():
            service = self._service()
            await service.start(path=sock)
            sub_reader, sub_writer = await asyncio.open_unix_connection(sock)
            sub_writer.write(encode_frame("subscribe", {}))
            # Stats requests it never reads the replies to, until the
            # service holds bytes for it that the socket would not take.
            for _ in range(2_000):
                if any(w.transport.get_write_buffer_size() for w in service._connections):
                    break
                sub_writer.write(encode_frame("stats", {"seq": 0}) * 64)
                await asyncio.sleep(0.005)
            else:
                raise AssertionError("the service never held a reply back")
            idle_reader, idle_writer = await asyncio.open_unix_connection(sock)
            ids, pos, vel = make_batch(4)
            idle_writer.write(encode_frame(
                "ingest", {"seq": 1, "send_t": 0.0},
                {"node_ids": ids, "positions": pos, "velocities": vel},
            ))
            ack = await asyncio.wait_for(read_frame(idle_reader), timeout=5.0)
            assert ack.kind == "ingest-ack" and len(service._connections) == 2
            await asyncio.wait_for(service.stop(), 2.0)
            for reader in (sub_reader, idle_reader):
                # What was already in flight, then EOF.
                await asyncio.wait_for(reader.read(), 1.0)
                assert reader.at_eof()
            for writer in (sub_writer, idle_writer):
                writer.close()

        asyncio.run(scenario())

    def test_client_that_never_reads_acks_costs_a_bounded_buffer(self, tmp_path):
        """A connection pauses its reading when its transport pauses
        writing, so a client that sends and never reads its acks stops
        being read once its connection's buffer passes the transport's
        high-water mark: the acks it is owed stay under
        ``SEND_BUDGET_BYTES`` without a budget check of their own."""
        from repro.service.service import SEND_BUDGET_BYTES

        sock = str(tmp_path / "acks.sock")

        async def scenario():
            service = self._service()
            await service.start(path=sock)
            try:
                _, writer = await asyncio.open_unix_connection(sock)
                ids, pos, vel = make_batch(4)
                frame = encode_frame(
                    "ingest", {"seq": 0, "send_t": 0.0},
                    {"node_ids": ids, "positions": pos, "velocities": vel},
                )
                written, read, buffered = 0, [], []
                while len(read) < 8 or len(set(read[-8:])) > 1:
                    assert written < 40_000, "the service kept reading"
                    writer.write(frame * 100)
                    written += 100
                    await asyncio.sleep(0.01)
                    (server_side,) = service._connections
                    read.append(service.counters.ingest_frames)
                    buffered.append(server_side.transport.get_write_buffer_size())
                # Stopped reading while the client kept writing.
                assert 0 < read[-1] < written
                assert 0 < max(buffered) <= SEND_BUDGET_BYTES
                assert service.counters.acks_sent == read[-1]
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


def test_service_import_does_not_load_the_history_extension():
    """``repro.server`` keeps current state only; the trajectory archive
    is its reader's import, not the service's."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import repro.service; "
        "sys.exit('repro.history' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_service_import_loads_no_extension_module():
    """The service process imports the serving path only: the package
    re-exports are lazy, so neither the linter, the simulator and its
    trace substrates, the experiments, the extension policy nor the
    systems loop (its node engine, shard router, motion model and
    helper thread) loads."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    unserved = (
        "repro.lint", "repro.sim", "repro.roadnet", "repro.trace", "repro.experiments",
        "repro.shedding.safe_region", "repro.server.system", "repro.server.node_engine",
        "repro.server.sharding", "repro.motion", "repro.parallel",
    )
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import repro.service.__main__; "
        f"print(sorted(m for m in sys.modules for p in {unserved!r} "
        "if m == p or m.startswith(p + '.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("package", ["repro", "repro.lint", "repro.server"])
def test_every_public_name_resolves(package):
    """The lazy re-exports keep every name in ``__all__``, by attribute
    and by ``from … import *``, and importing the package alone loads
    none of the modules they live in."""
    module = importlib.import_module(package)
    assert all(getattr(module, name) is not None for name in module.__all__)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
    src = str(Path(repro.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import {package}; "
        f"print(sorted(sys.modules.keys() & {set(module._HOMES)!r}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
