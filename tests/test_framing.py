"""Property-based tests for the LCQ2 wire format (``repro.service.framing``).

Zero-copy is asserted (shared memory, alignment, what a decoded array
pins), never timed; every malformed input must surface as
:class:`FrameError` — never another exception, never an allocation
sized by a length the peer declared but did not send.
"""

import asyncio
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.service.framing import (
    _PREFIX,
    _WIRE_DTYPES,
    MAGIC,
    MAX_SECTION_BYTES,
    FrameError,
    decode_frame,
    encode_frame,
    read_frame,
)
from tests.test_service import root_buffer

WIRE_DTYPES = sorted(_WIRE_DTYPES)


def raw_frame(header: object, body: bytes = b"", magic: bytes = MAGIC) -> bytes:
    """A frame with an arbitrary (possibly hostile) JSON header."""
    head = header if isinstance(header, bytes) else json.dumps(header).encode()
    return _PREFIX.pack(magic, len(head), len(body)) + head + body


def with_arrays(specs: object, body: bytes = b"") -> bytes:
    return raw_frame({"kind": "ingest", "meta": {}, "arrays": specs}, body)


def read_from(chunks: list[bytes]):
    """``read_frame`` over a stream fed ``chunks`` and then EOF."""

    async def scenario():
        reader = asyncio.StreamReader()
        for chunk in chunks:
            reader.feed_data(chunk)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(scenario())


arrays_strategy = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.sampled_from(WIRE_DTYPES).flatmap(
        lambda dtype: hnp.arrays(
            dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)
        )
    ),
    max_size=4,
)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(arrays=arrays_strategy, meta=st.dictionaries(st.text(max_size=5), st.integers()))
    def test_values_dtype_shape_and_zero_copy(self, arrays, meta):
        payload = encode_frame("ingest", meta, arrays)
        whole = np.frombuffer(payload, dtype=np.uint8)
        for frame in (decode_frame(payload), read_from([payload])):
            assert frame.kind == "ingest" and frame.meta == meta
            assert list(frame.arrays) == list(arrays)
            for name, sent in arrays.items():
                got = frame.arrays[name]
                assert got.dtype == sent.dtype and got.shape == sent.shape
                np.testing.assert_array_equal(got, sent)
                assert got.flags.aligned and not got.flags.owndata
                assert not got.flags.writeable
        for got in decode_frame(payload).arrays.values():
            assert root_buffer(got) is payload
            assert got.size == 0 or np.shares_memory(got, whole)

    def test_stream_arrays_pin_the_body_and_nothing_else(self):
        arrays = {"a": np.arange(5, dtype=np.int16), "b": np.ones((3, 2))}
        payload = encode_frame("ingest", {"seq": 1}, arrays)
        _, header_len, body_len = _PREFIX.unpack_from(payload)
        frame = read_from([payload])
        bodies = {id(root_buffer(a)): root_buffer(a) for a in frame.arrays.values()}
        assert len(bodies) == 1
        (body,) = bodies.values()
        assert type(body) is bytes and len(body) == body_len
        assert body == payload[_PREFIX.size + header_len :]

    def test_every_section_starts_on_an_8_byte_boundary(self):
        payload = encode_frame("x", {"pad": "é"}, {"a": np.ones(3, np.int8), "b": np.ones(2)})
        _, header_len, body_len = _PREFIX.unpack_from(payload)
        assert (_PREFIX.size + header_len) % 8 == 0
        assert body_len == 8 + 16  # 3 int8 padded to 8, then 2 float64

    @pytest.mark.parametrize(
        "sent",
        [
            np.arange(6, dtype=">i4"),  # big-endian source: swapped on encode
            np.arange(12.0).reshape(3, 4).T,  # Fortran-ordered view
            np.arange(10)[::3],  # strided view
            np.float32(2.5),  # 0-d
        ],
        ids=["big-endian", "transposed", "strided", "zero-dim"],
    )
    def test_non_native_layouts_encode_to_the_canonical_one(self, sent):
        got = decode_frame(encode_frame("x", {}, {"a": sent})).arrays["a"]
        np.testing.assert_array_equal(got, sent)
        assert got.shape == np.shape(sent)
        assert got.dtype == np.asarray(sent).dtype.newbyteorder("<")
        assert got.flags.c_contiguous

    @pytest.mark.parametrize(
        "bad",
        [np.array([object()]), np.array([1j]), np.array(["s"]), np.zeros(2, "M8[s]"),
         np.zeros(2, [("x", "i4")])],
        ids=["object", "complex", "str", "datetime", "struct"],
    )
    def test_unsupported_dtypes_refuse_to_encode(self, bad):
        with pytest.raises(FrameError, match="wire dtype"):
            encode_frame("x", {}, {"a": bad})


HOSTILE_SPECS = {
    "arrays-not-a-list": {"a": ["<f8", [0]]},
    "arrays-null": None,
    "spec-not-a-list": ["a"],
    "spec-wrong-arity": [["a", "<f8"]],
    "name-not-a-string": [[7, "<f8", [0]]],
    "duplicate-name": [["a", "<f8", [0]], ["a", "<f8", [0]]],
    "dtype-object": [["a", "|O", [0]]],
    "dtype-void": [["a", "|V8", [0]]],
    "dtype-big-endian": [["a", ">f8", [0]]],
    "dtype-native-alias": [["a", "float64", [0]]],
    "dtype-unicode": [["a", "<U4", [0]]],
    "dtype-not-a-string": [["a", ["<f8"], [0]]],
    "dtype-structured": [["a", "i4,i4", [0]]],
    "shape-not-a-list": [["a", "<f8", 0]],
    "shape-negative": [["a", "<f8", [-1]]],
    "shape-float": [["a", "<f8", [1.0]]],
    "shape-bool": [["a", "<f8", [True]]],
    "shape-string": [["a", "<f8", ["1"]]],
    "shape-huge-dim": [["a", "<f8", [2**70]]],
    "shape-overflowing-product": [["a", "<f8", [2**26] * 4]],
    "shape-overflowing-product-with-zero": [["a", "<f8", [2**26] * 6 + [0]]],
    "shape-too-many-dims": [["a", "<f8", [1] * 65]],
    "spec-overruns-empty-body": [["a", "<f8", [4]]],
}


class TestHostileHeaders:
    @pytest.mark.parametrize("specs", HOSTILE_SPECS.values(), ids=HOSTILE_SPECS.keys())
    def test_bad_array_specs_are_frame_errors(self, specs):
        for decode in (decode_frame, lambda data: read_from([data])):
            with pytest.raises(FrameError):
                decode(with_arrays(specs))

    def test_spec_overrunning_or_underfilling_the_body(self):
        body = np.arange(4.0).tobytes()
        assert decode_frame(with_arrays([["a", "<f8", [4]]], body)).arrays["a"][3] == 3.0
        for specs in (
            [["a", "<f8", [5]]],  # runs past the body
            [["a", "<f8", [3]]],  # 8 undeclared trailing bytes
            [["a", "<f8", [4]], ["b", "|i1", [1]]],  # second array has no bytes
            [],  # body present, nothing declared
        ):
            with pytest.raises(FrameError, match="body"):
                decode_frame(with_arrays(specs, body))
        # Unpadded tail: 3 int8 need 8 body bytes on the wire, not 3.
        with pytest.raises(FrameError, match="body"):
            decode_frame(with_arrays([["a", "|i1", [3]]], b"\x01\x02\x03"))

    @pytest.mark.parametrize(
        "header",
        [b"[]", b'"ingest"', b"7", b"{", b"\xff\xfe", b"[" * 100_000,
         b'{"kind": 3}', b'{"kind": "x", "meta": [1]}'],
        ids=["list", "string", "number", "truncated", "not-utf8", "deep-nesting",
             "kind-not-string", "meta-not-object"],
    )
    def test_bad_headers_are_frame_errors(self, header):
        with pytest.raises(FrameError):
            decode_frame(raw_frame(header))

    @settings(max_examples=200, deadline=None)
    @given(noise=st.binary(max_size=64), body=st.binary(max_size=32))
    def test_arbitrary_header_bytes_never_raise_anything_else(self, noise, body):
        try:
            frame = decode_frame(raw_frame(noise, body))
        except FrameError:
            return
        assert isinstance(frame.kind, str)

    @settings(max_examples=200, deadline=None)
    @given(
        specs=st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
            | st.text(max_size=4) | st.sampled_from(WIRE_DTYPES),
            lambda inner: st.lists(inner, max_size=4),
            max_leaves=12,
        ),
        body=st.binary(max_size=32),
    )
    def test_arbitrary_array_specs_never_raise_anything_else(self, specs, body):
        try:
            frame = decode_frame(with_arrays(specs, body))
        except FrameError:
            return
        assert sum(a.nbytes + (-a.nbytes % 8) for a in frame.arrays.values()) == len(body)


class TestStreamBoundaries:
    def test_truncation_at_every_section_boundary(self):
        payload = encode_frame("ingest", {"seq": 1}, {"a": np.arange(4.0), "b": np.arange(3)})
        _, header_len, _ = _PREFIX.unpack_from(payload)
        body_at = _PREFIX.size + header_len
        cuts = {1, _PREFIX.size - 1, _PREFIX.size, _PREFIX.size + 1, body_at - 1, body_at,
                body_at + 1, body_at + 32, len(payload) - 1}
        for cut in sorted(cuts):
            with pytest.raises(FrameError, match="EOF"):
                read_from([payload[:cut]])
            with pytest.raises(FrameError):
                decode_frame(payload[:cut])
        assert read_from([b""]) is None
        assert read_from([payload]).kind == "ingest"

    def test_back_to_back_frames_split_at_arbitrary_points(self):
        first = encode_frame("ingest", {"seq": 1}, {"a": np.arange(5.0)})
        second = encode_frame("ping", {"seq": 2})
        stream = first + second

        async def scenario(cut):
            reader = asyncio.StreamReader()
            reader.feed_data(stream[:cut])
            reader.feed_data(stream[cut:])
            reader.feed_eof()
            return [await read_frame(reader) for _ in range(3)]

        for cut in range(0, len(stream), 7):
            a, b, end = asyncio.run(scenario(cut))
            assert (a.kind, b.kind, end) == ("ingest", "ping", None)
            np.testing.assert_array_equal(a.arrays["a"], np.arange(5.0))

    @pytest.mark.parametrize(
        "lengths", [(MAX_SECTION_BYTES + 1, 0), (0, MAX_SECTION_BYTES + 1), (2**32 - 1, 2**32 - 1)]
    )
    def test_oversize_declared_lengths_fail_before_any_read(self, lengths):
        prefix = _PREFIX.pack(MAGIC, *lengths)
        with pytest.raises(FrameError, match="MAX_SECTION_BYTES"):
            read_from([prefix])
        with pytest.raises(FrameError, match="MAX_SECTION_BYTES"):
            decode_frame(prefix)

    def test_declared_but_absent_lengths_allocate_nothing(self):
        """A prefix or a spec may *declare* 64 MiB; refusing it must not
        cost memory in proportion."""
        absent_body = _PREFIX.pack(MAGIC, 8, MAX_SECTION_BYTES) + b'{"k":1} '
        absent_array = with_arrays([["a", "<f8", [MAX_SECTION_BYTES // 8]]])
        tracemalloc.start()
        try:
            for data in (absent_body, absent_array):
                with pytest.raises(FrameError):
                    read_from([data])
                with pytest.raises(FrameError):
                    decode_frame(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024


class TestRetiredFormat:
    @staticmethod
    def lcq1_frame() -> bytes:
        """An ingest frame exactly as the retired LCQ1 encoder wrote it."""
        header = json.dumps({"kind": "ingest", "meta": {"seq": 1}}).encode()
        body = io.BytesIO()
        np.savez(body, node_ids=np.arange(3), positions=np.ones((3, 2)))
        return _PREFIX.pack(b"LCQ1", len(header), len(body.getvalue())) + header + body.getvalue()

    def test_lcq1_npz_frame_is_a_bad_magic(self):
        with pytest.raises(FrameError, match="magic"):
            decode_frame(self.lcq1_frame())
        with pytest.raises(FrameError, match="magic"):
            read_from([self.lcq1_frame()])

    def test_npz_body_under_the_new_magic_is_not_parsed(self):
        """No zip reader is reachable: an archive is just undeclared bytes."""
        old = self.lcq1_frame()
        with pytest.raises(FrameError, match="undeclared"):
            decode_frame(MAGIC + old[4:])

    def test_service_package_has_no_archive_reader(self):
        import repro.service.framing as framing
        import repro.service.service as service

        for module in (framing, service):
            with open(module.__file__) as fh:
                source = fh.read()
            for needle in ("np.load", "np.savez", "zipfile", "BytesIO", "pickle"):
                assert needle not in source, (module.__name__, needle)
