"""Length-prefixed raw-buffer frames: the wire format of the live service.

A frame is::

    MAGIC (4 bytes) | header_len (u32 BE) | body_len (u32 BE)
    | header (JSON, utf-8, space-padded) | body (array buffers, may be empty)

The JSON header carries the frame ``kind``, small scalar ``meta``
(sequence numbers, timestamps, counters) and ``arrays``, a list of
``[name, dtype, shape]`` specs.  The body is those arrays' C-contiguous
little-endian buffers back to back, each zero-padded to a multiple of
8 bytes; the header is space-padded so the body also starts on an
8-byte boundary of the frame.  Decoding is therefore ``np.frombuffer``
views over the received bytes — aligned, read-only, no copy and no
parse of the payload — and a decoded array keeps its buffer alive.

A client's :func:`read_frame` reads header and body as two buffers, so
its arrays pin the body alone; the service receives into one reused
buffer per connection, cuts frames out of it with :func:`cut_frame` and
copies out what its queue keeps before the buffer is reused.

Framing is strict: a wrong magic (including the retired npz-bodied
``LCQ1``), an oversized declared length, or an array spec that is not a
whitelisted fixed-width dtype with a shape that exactly tiles the body
fails immediately with :class:`FrameError` instead of letting a
desynchronized or hostile stream masquerade as frames.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

__all__ = ["Frame", "FrameError", "cut_frame", "encode_frame", "decode_frame", "read_frame"]

MAGIC = b"LCQ2"
_PREFIX = struct.Struct(">4sII")
_ALIGN = 8
_MAX_NDIM = 32

#: Hard cap on either section of a frame (64 MiB).  A desynchronized or
#: malicious stream then fails fast instead of asking asyncio to buffer
#: gigabytes that a corrupted length prefix "declared".
MAX_SECTION_BYTES = 64 * 1024 * 1024

#: The only dtypes a frame may carry: fixed-width bool/int/uint/float,
#: little-endian, so a view never needs a byte swap or an object.
_WIRE_DTYPES = frozenset(
    np.dtype(code).newbyteorder("<").str
    for code in ("?", "i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8", "f2", "f4", "f8")
)


class FrameError(ValueError):
    """The byte stream does not contain a well-formed frame."""


@dataclass(frozen=True)
class Frame:
    """One decoded protocol frame."""

    kind: str
    meta: dict[str, Any]
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


def _padding(nbytes: int) -> int:
    return -nbytes % _ALIGN


def encode_frame(
    kind: str,
    meta: Mapping[str, Any] | None = None,
    arrays: Mapping[str, np.ndarray] | None = None,
) -> bytes:
    """Serialize one frame to bytes."""
    specs: list[list[Any]] = []
    body: list[Any] = []
    for name, value in (arrays or {}).items():
        array = np.asarray(value, order="C")
        dtype = array.dtype.newbyteorder("<")
        if dtype.str not in _WIRE_DTYPES:
            raise FrameError(f"array {name!r}: dtype {array.dtype} is not a wire dtype")
        array = array.astype(dtype, copy=False)
        specs.append([name, dtype.str, list(array.shape)])
        body += [array.reshape(-1).view(np.uint8), bytes(_padding(array.nbytes))]
    head: dict[str, Any] = {"kind": kind, "meta": dict(meta or {})}
    if specs:
        head["arrays"] = specs
    header = json.dumps(head, separators=(",", ":")).encode("utf-8")
    header += b" " * _padding(_PREFIX.size + len(header))
    body_len = sum(len(part) for part in body)
    if len(header) > MAX_SECTION_BYTES or body_len > MAX_SECTION_BYTES:
        raise FrameError("frame section exceeds MAX_SECTION_BYTES")
    return b"".join([_PREFIX.pack(MAGIC, len(header), body_len), header, *body])


def _parse_prefix(prefix: bytes | memoryview) -> tuple[int, int]:
    """``(header_len, body_len)`` of a frame from its 12-byte prefix."""
    magic, header_len, body_len = _PREFIX.unpack_from(prefix)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    if header_len > MAX_SECTION_BYTES or body_len > MAX_SECTION_BYTES:
        raise FrameError("declared frame section exceeds MAX_SECTION_BYTES")
    return header_len, body_len


def _views(specs: Any, body: bytes | memoryview) -> dict[str, np.ndarray]:
    """The arrays ``specs`` declares, as views tiling ``body`` exactly."""
    if not isinstance(specs, list):
        raise FrameError("frame 'arrays' must be a list")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for spec in specs:
        if not (isinstance(spec, list) and len(spec) == 3):
            raise FrameError("array spec must be [name, dtype, shape]")
        name, dtype, shape = spec
        if not isinstance(name, str) or name in arrays:
            raise FrameError(f"array name {name!r} is not a unique string")
        if not isinstance(dtype, str) or dtype not in _WIRE_DTYPES:
            raise FrameError(f"array {name!r}: {dtype!r} is not a wire dtype")
        if not (isinstance(shape, list) and len(shape) <= _MAX_NDIM) or not all(
            type(dim) is int and 0 <= dim <= MAX_SECTION_BYTES for dim in shape
        ):
            raise FrameError(f"array {name!r}: bad shape {shape!r}")
        count = math.prod(shape)
        nbytes = count * np.dtype(dtype).itemsize
        nbytes += _padding(nbytes)
        if nbytes > len(body) - offset:
            raise FrameError(f"array {name!r} runs past the frame body")
        try:
            arrays[name] = np.frombuffer(body, dtype, count, offset).reshape(shape)
        except ValueError as exc:  # zero-size shape whose other dims overflow
            raise FrameError(f"array {name!r}: {exc}") from exc
        offset += nbytes
    if offset != len(body):
        raise FrameError(f"frame body has {len(body) - offset} undeclared bytes")
    return arrays


def _decode(header_bytes: bytes, body: bytes | memoryview) -> Frame:
    try:
        header = json.loads(header_bytes)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FrameError(f"bad frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise FrameError("frame header must be an object")
    kind = header.get("kind")
    if not isinstance(kind, str):
        raise FrameError("frame header missing string 'kind'")
    meta = header.get("meta") or {}
    if not isinstance(meta, dict):
        raise FrameError("frame 'meta' must be an object")
    return Frame(kind=kind, meta=meta, arrays=_views(header.get("arrays", []), body))


def cut_frame(view: memoryview) -> tuple[Frame | None, int]:
    """``(frame, its length)`` for the frame ``view`` starts with, or
    ``(None, the length it needs)`` while it is incomplete.  A bad prefix
    raises at once; the arrays are views into ``view``."""
    if len(view) < _PREFIX.size:
        return None, _PREFIX.size
    header_len, body_len = _parse_prefix(view)
    body_at = _PREFIX.size + header_len
    size = body_at + body_len
    if len(view) < size:
        return None, size
    return _decode(bytes(view[_PREFIX.size : body_at]), view[body_at:size]), size


def decode_frame(data: bytes) -> Frame:
    """Decode one complete frame from bytes (the inverse of
    :func:`encode_frame`); the arrays are views into ``data``."""
    frame, size = cut_frame(memoryview(data))
    if frame is None or size != len(data):
        raise FrameError(f"frame length mismatch: {len(data)} != {size}")
    return frame


async def read_frame(reader: asyncio.StreamReader) -> Frame | None:
    """Read exactly one frame from a stream; ``None`` on clean EOF.

    EOF mid-frame (the peer died between prefix and payload) raises
    :class:`FrameError` — a half-frame is corruption, not a clean close.
    Header and body are read as separate buffers, so the decoded arrays
    pin the body's bytes and nothing else.
    """
    try:
        prefix = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError("EOF inside a frame prefix") from exc
    header_len, body_len = _parse_prefix(prefix)
    try:
        header = await reader.readexactly(header_len)
        body = await reader.readexactly(body_len)
    except asyncio.IncompleteReadError as exc:
        raise FrameError("EOF inside a frame payload") from exc
    return _decode(header, body)
