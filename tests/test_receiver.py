"""The service's receive path without a socket: a connection driven
through ``get_buffer`` / ``buffer_updated`` exactly as a transport's
``recv_into`` drives it, over streams cut at arbitrary read boundaries.

Every frame must dispatch as :func:`decode_frame` of that frame alone,
as aligned read-only views, and reports the bounded queue keeps must
survive the receive buffer's reuse."""

import asyncio

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.framing import _PREFIX, MAGIC, MAX_SECTION_BYTES, decode_frame, encode_frame
from repro.service.service import RECV_BUFFER_BYTES, RECV_KEEP_BYTES, _Connection
from tests.test_service import make_service

N_NODES = 64
#: Reports (48 bytes each with times) that overflow the initial buffer.
BIG_BATCH = RECV_BUFFER_BYTES // 48 + 1


class FakeTransport(asyncio.Transport):
    """Records what the connection writes and how it steers the reading."""

    def __init__(self):
        super().__init__()
        self.payloads: list[bytes] = []
        self.closed = False
        self.reading = True

    def write(self, data) -> None:
        self.payloads.append(bytes(data))

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def get_write_buffer_size(self) -> int:
        return 0

    def frames(self):
        return [decode_frame(payload) for payload in self.payloads]


def connect(service):
    connection = _Connection(service)
    connection.connection_made(FakeTransport())
    return connection


def receive(connection, stream: bytes, cuts=()) -> None:
    """Deliver ``stream`` in reads that end at each cut (and wherever the
    free part of the buffer ends), as ``recv_into`` would."""
    bounds = [0, *sorted(set(cuts) - {0, len(stream)}), len(stream)]
    for lo, hi in zip(bounds, bounds[1:]):
        while lo < hi and not connection.transport.closed:
            assert connection.transport.reading
            buffer = connection.get_buffer(-1)
            n = min(len(buffer), hi - lo)
            buffer[:n] = stream[lo : lo + n]
            connection.buffer_updated(n)
            lo += n


def ingest_payload(seed: int, k: int, seq: int) -> bytes:
    rng = np.random.default_rng(seed)
    arrays = {
        "node_ids": rng.integers(0, N_NODES, k),
        "positions": rng.uniform(0.0, 1000.0, (k, 2)),
        "velocities": rng.uniform(-5.0, 5.0, (k, 2)),
        "times": np.full(k, 100.0 - rng.uniform(0.0, 1.0)),
    }
    return encode_frame("ingest", {"seq": seq, "send_t": 0.0}, arrays)


frame_spec = st.one_of(
    st.tuples(st.just("ingest"), st.integers(1, 40) | st.integers(BIG_BATCH, 8 * BIG_BATCH)),
    st.tuples(st.sampled_from(["ping", "stats", "subscribe"]), st.just(0)),
)


def build_stream(specs, seed: int) -> list[bytes]:
    return [
        ingest_payload(seed + seq, k, seq) if kind == "ingest" else encode_frame(kind, {"seq": seq})
        for seq, (kind, k) in enumerate(specs)
    ]


def spy(service) -> list[dict]:
    """What each dispatched frame held, read while it was dispatched."""
    seen: list[dict] = []
    dispatch = service._dispatch

    def recording(frame, writer):
        seen.append({
            "kind": frame.kind,
            "meta": frame.meta,
            "arrays": {name: array.copy() for name, array in frame.arrays.items()},
            "views": all(array.flags.aligned and not array.flags.writeable
                         for array in frame.arrays.values()),
        })
        dispatch(frame, writer)

    service._dispatch = recording
    return seen


class TestReceiverProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        specs=st.lists(frame_spec, min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
        cut_at=st.lists(st.floats(0.0, 1.0), max_size=24),
        near_bounds=st.lists(st.integers(-13, 13), max_size=12),
    )
    def test_frames_dispatch_whole_and_queued_reports_survive_reuse(
        self, specs, seed, cut_at, near_bounds
    ):
        payloads = build_stream(specs, seed)
        stream = b"".join(payloads)
        ends = np.cumsum([len(p) for p in payloads])
        cuts = [int(f * len(stream)) for f in cut_at]
        # Cuts beside frame boundaries split prefixes and headers.
        cuts += [int(ends[i % len(ends)]) + d for i, d in enumerate(near_bounds)]
        cuts = [c for c in cuts if 0 < c < len(stream)]

        reports = sum(k for kind, k in specs if kind == "ingest")
        capacity = max(2, reports // 2)  # some reports drop, the rest wait queued
        service = make_service(n_nodes=N_NODES, queue_capacity=capacity)
        service.adapt_once()
        seen = spy(service)
        connection = connect(service)
        receive(connection, stream, cuts)

        # 1. Every frame dispatched as decode_frame of it alone, as views.
        assert not connection.transport.closed and service.counters.protocol_errors == 0
        assert len(seen) == len(payloads)
        for got, payload in zip(seen, payloads):
            alone = decode_frame(payload)
            assert (got["kind"], got["meta"]) == (alone.kind, alone.meta)
            assert got["arrays"].keys() == alone.arrays.keys()
            for name, array in alone.arrays.items():
                np.testing.assert_array_equal(got["arrays"][name], array)
            assert got["views"]

        # 2. Nothing was pumped between frames, so what the queue held
        # lived through every later read; drained, the table is the one
        # the direct path builds.
        twin = make_service(n_nodes=N_NODES, queue_capacity=capacity)
        for payload in payloads:
            frame = decode_frame(payload)
            if frame.kind == "ingest":
                twin.apply_ingest(service.clock(), **frame.arrays)
        assert len(service.server.queue) == len(twin.server.queue) == min(capacity, reports)
        for svc in (service, twin):
            svc.pump_once(1e6)
        ours, theirs = service.server.table, twin.server.table
        np.testing.assert_array_equal(ours.known_mask, theirs.known_mask)
        np.testing.assert_array_equal(ours.predict(101.0), theirs.predict(101.0))
        np.testing.assert_array_equal(ours.velocities, theirs.velocities)
        np.testing.assert_array_equal(ours.last_update_times, theirs.last_update_times)
        assert ours.updates_applied == theirs.updates_applied


class TestReceiverEdges:
    def test_buffer_is_reused_and_grows_only_for_a_frame_that_does_not_fit(self):
        service = make_service(n_nodes=N_NODES, service_rate=1e9, queue_capacity=10**6)
        connection = connect(service)
        buffer = connection._buf
        receive(connection, ingest_payload(0, 10, 0) + ingest_payload(1, 20, 1))
        assert connection._buf is buffer and connection._start == connection._end == 0
        big = ingest_payload(2, BIG_BATCH, 2)
        assert RECV_BUFFER_BYTES < len(big) < 2 * RECV_BUFFER_BYTES
        receive(connection, big, [len(big) // 3])
        grown = connection._buf
        assert len(grown) == len(big)  # twice as large, but no larger than the frame
        receive(connection, ingest_payload(3, 10, 3) + big)
        assert connection._buf is grown and service.counters.ingest_frames == 5

    def test_buffer_grows_with_the_bytes_received_not_the_bytes_declared(self):
        """A peer that declares a 64 MiB body and sends a little of it
        costs about what it sent; a frame past ``RECV_KEEP_BYTES`` is let
        go once it has been dispatched."""
        service = make_service(n_nodes=N_NODES, service_rate=1e9, queue_capacity=10**6)
        connection = connect(service)
        receive(connection, _PREFIX.pack(MAGIC, 8, MAX_SECTION_BYTES) + b"{}      " + bytes(100))
        assert len(connection._buf) == RECV_BUFFER_BYTES
        receive(connection, bytes(5 * RECV_BUFFER_BYTES))
        sent = connection._end
        assert sent < len(connection._buf) <= 2 * sent
        assert not connection.transport.closed and service.counters.protocol_errors == 0

        connection = connect(service)
        huge = ingest_payload(4, RECV_KEEP_BYTES // 48 + 1, 4)
        receive(connection, huge)
        assert service.counters.ingest_frames == 1
        assert len(connection._buf) == RECV_BUFFER_BYTES and connection._end == 0

    def test_oversized_prefix_is_refused_before_the_buffer_grows(self):
        service = make_service(n_nodes=N_NODES)
        connection = connect(service)
        receive(connection, _PREFIX.pack(MAGIC, 8, MAX_SECTION_BYTES + 1))
        (error,) = connection.transport.frames()
        assert error.kind == "error" and "MAX_SECTION_BYTES" in error.meta["message"]
        assert connection.transport.closed and len(connection._buf) == RECV_BUFFER_BYTES
        assert service.protocol_errors_by_reason == {"bad-frame": 1}

    def test_eof_inside_a_frame_is_one_bad_frame(self):
        service = make_service(n_nodes=N_NODES)
        connection = connect(service)
        receive(connection, encode_frame("ping", {"seq": 1}) + encode_frame("ping")[:-3])
        connection.eof_received()
        assert [f.kind for f in connection.transport.frames()] == ["pong", "error"]
        assert service.protocol_errors_by_reason == {"bad-frame": 1}

    def test_unpadded_header_decodes_unaligned_but_correct(self):
        """A peer that skips the header padding is served, not refused:
        its arrays (and the frames after it) are unaligned views whose
        values are the ones sent."""
        service = make_service(n_nodes=N_NODES, service_rate=1e9)
        seen = spy(service)
        padded = ingest_payload(5, 7, 1)
        frame = decode_frame(padded)
        _, header_len, body_len = _PREFIX.unpack_from(padded)
        header = padded[_PREFIX.size : _PREFIX.size + header_len].rstrip()
        header += b" " * ((3 - _PREFIX.size - len(header)) % 8)  # 3 past a boundary
        unpadded = (_PREFIX.pack(MAGIC, len(header), body_len) + header
                    + padded[_PREFIX.size + header_len :])
        connection = connect(service)
        receive(connection, unpadded + padded)
        assert not connection.transport.closed and service.counters.protocol_errors == 0
        assert len(seen) == 2
        for got in seen:
            assert not got["views"]  # not aligned
            for name, array in frame.arrays.items():
                np.testing.assert_array_equal(got["arrays"][name], array)
        service.pump_once(1.0)
        assert service.server.table.updates_applied == 14
