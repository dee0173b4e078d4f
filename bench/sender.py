"""Open-loop sender and the service process it fires at.

Node-side semantics are those of ``repro.loadtest.runner``: shed at the
source with the latest pushed plan, never wait for an ack, charge latency
from the *scheduled* send time.  This sender additionally keeps what the
benchmark needs per event: how late each frame left, the server's
``recv_t``/``done_t`` and the client receipt time of each ack, and the
``z``, size and delivery time of each plan push.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import select
import shutil
import struct
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro import timing
from repro.core import PlanDelta, PlanEpochMismatch, SheddingPlan
from repro.motion import DeadReckoningFleet
from repro.service.framing import MAGIC, Frame, decode_frame, encode_frame

import harness
from inputs import Motion

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
_PREFIX = struct.Struct(">4sII")  # MAGIC | header_len | body_len (framing.py)
WAIT_S = 30.0
DRAIN_S = 5.0
#: A frame is prepared (thresholds, dead reckoning, encode) this long
#: before it is due, so that what leaves late is the send, not the node's
#: arithmetic: a node knows its report before its slot comes up.
PREPARE_S = 0.008


@contextlib.contextmanager
def spawned_service(flags: list[str], spans_out: str | None = None) -> Iterator[tuple]:
    """A service process on a fresh unix socket; always reaped.

    Untraced it is ``python -m repro.service``; with ``spans_out`` it is
    the bench-owned launcher, which serves the same object with spans
    around its layers and writes them to ``spans_out`` on SIGTERM.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    sockdir = tempfile.mkdtemp(prefix="sock-", dir=OUT_DIR)
    # sun_path holds ~107 bytes: use whichever spelling of the path is shorter.
    path = min(
        (os.path.join(sockdir, "s"), os.path.relpath(os.path.join(sockdir, "s"))), key=len
    )
    if spans_out is None:
        command = [sys.executable, "-m", "repro.service"]
    else:
        command = [sys.executable, os.path.join(BENCH_DIR, "launcher.py"),
                   "--spans-out", spans_out]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        command + ["--socket", path] + flags, env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], WAIT_S)
        if not ready or not proc.stdout.readline().startswith("listening"):
            raise RuntimeError(f"service did not start: {' '.join(command)}")
        yield proc, path
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(sockdir, ignore_errors=True)


async def _read_sized(reader: asyncio.StreamReader) -> tuple[Frame | None, int]:
    """One frame and its size on the wire; ``(None, 0)`` on clean EOF."""
    try:
        prefix = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError:
        return None, 0
    magic, header_len, body_len = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    rest = await reader.readexactly(header_len + body_len)
    return decode_frame(prefix + rest), _PREFIX.size + len(rest)


@dataclass
class Push:
    receipt_t: float
    generated_t: float
    z: float
    kind: str
    nbytes: int


@dataclass
class Sent:
    scheduled_t: float
    sent_t: float
    reports: int
    # Filled from the ack; ``done_t`` stays None if the ack never came.
    recv_t: float | None = None
    done_t: float | None = None
    receipt_t: float | None = None
    admitted: int = 0
    dropped: int = 0


@dataclass
class Session:
    """What one run of the sender observed."""

    frames: dict[int, Sent] = field(default_factory=dict)
    pushes: list[Push] = field(default_factory=list)
    stats: dict[int, dict] = field(default_factory=dict)
    delta_mismatches: int = 0
    plan: SheddingPlan | None = None
    last_full_meta: dict | None = None
    last_delta_meta: dict | None = None
    first_plan_t: float = 0.0
    window_start_t: float = 0.0
    window_end_t: float = 0.0
    service_cpu_s: float = 0.0
    sender_cpu_s: float = 0.0


@dataclass
class Schedule:
    """When each frame is due and how the nodes move between frames.

    ``offsets`` are wall seconds from the start of the run; ``motion``
    advances one simulated step per frame; reported velocities are scaled
    by ``time_scale`` (simulated seconds per wall second) so that the
    server's dead reckoning runs on the wall clock.
    """

    offsets: np.ndarray
    motion: Motion
    time_scale: float


class Sender:
    """Fires ``schedule`` at one service; frames before ``warm_s`` are warm-up."""

    def __init__(
        self,
        schedule: Schedule | None,
        warm_s: float,
        service_pid: int,
        default_delta: float,
        clock: timing.Clock = timing.monotonic,
    ) -> None:
        self.schedule = schedule
        self.warm_s = warm_s
        self.pid = service_pid
        self.default_delta = default_delta
        self.clock = clock
        self.out = Session()
        self._first_plan = asyncio.Event()
        self._all_acked = asyncio.Event()
        self._stats_reply = asyncio.Event()
        self._unacked = 0

    async def run(self, path: str) -> Session:
        """Subscribe, wait for the first plan, then fire the schedule."""
        reader, writer = await asyncio.open_unix_connection(path)
        read_task = asyncio.create_task(self._read(reader))
        try:
            writer.write(encode_frame("subscribe", {}))
            await asyncio.wait_for(self._first_plan.wait(), WAIT_S)
            self.out.first_plan_t = self.clock()
            if self.schedule is not None:
                await self._fire(writer)
        finally:
            read_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await read_task
            writer.close()
        return self.out

    def _stats(self, writer: asyncio.StreamWriter, seq: int) -> None:
        self._stats_reply.clear()
        writer.write(encode_frame("stats", {"seq": seq}))

    async def _fire(self, writer: asyncio.StreamWriter) -> None:
        schedule, out, clock = self.schedule, self.out, self.clock
        motion = schedule.motion
        fleet = DeadReckoningFleet(motion.positions.shape[0])
        start = clock()
        cpu_mark = 0.0
        for r, offset in enumerate(schedule.offsets.tolist()):
            if r:
                motion.advance()
            target = start + offset
            delay = target - PREPARE_S - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            if not out.window_start_t and offset >= self.warm_s:
                out.window_start_t = target
                out.service_cpu_s = -harness.proc_cpu_s(self.pid)
                cpu_mark = time.process_time()
                self._stats(writer, -2)
            positions, velocities = motion.positions, motion.velocities * schedule.time_scale
            if out.plan is not None:
                fleet.set_thresholds(out.plan.thresholds_for(positions))
            else:
                fleet.set_thresholds(self.default_delta)
            senders = fleet.observe(target, positions, velocities)
            if senders.size == 0:
                continue
            payload = encode_frame(
                "ingest",
                {"seq": r, "send_t": target},
                {
                    "node_ids": senders,
                    "positions": positions[senders],
                    "velocities": velocities[senders],
                    "times": np.full(senders.size, target),
                },
            )
            delay = target - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            # else: behind schedule; fire at once, never skip (open loop).
            out.frames[r] = Sent(target, clock(), int(senders.size))
            self._unacked += 1
            self._all_acked.clear()
            writer.write(payload)
        out.window_end_t = clock()
        out.sender_cpu_s = time.process_time() - cpu_mark
        await writer.drain()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._all_acked.wait(), DRAIN_S)
        self._stats(writer, -1)
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._stats_reply.wait(), DRAIN_S)
        out.service_cpu_s += harness.proc_cpu_s(self.pid)

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            frame, nbytes = await _read_sized(reader)
            if frame is None:
                return
            self._handle(frame, nbytes, self.clock())

    def _handle(self, frame: Frame, nbytes: int, now: float) -> None:
        out, meta = self.out, frame.meta
        if frame.kind == "ingest-ack":
            sent = out.frames.get(meta.get("seq"))
            if sent is not None and sent.done_t is None:
                sent.recv_t, sent.done_t = float(meta["recv_t"]), float(meta["done_t"])
                sent.receipt_t = now
                sent.admitted, sent.dropped = int(meta["admitted"]), int(meta["dropped"])
                self._unacked -= 1
                if self._unacked == 0:
                    self._all_acked.set()
        elif frame.kind in ("plan", "plan-delta"):
            out.pushes.append(
                Push(now, float(meta["generated_t"]), float(meta["z"]), frame.kind, nbytes)
            )
            if frame.kind == "plan":
                out.plan = SheddingPlan.from_dict(meta["plan"])
                out.last_full_meta = meta
            elif out.plan is None:
                out.delta_mismatches += 1
            else:
                out.last_delta_meta = meta
                try:
                    out.plan = out.plan.apply_delta(PlanDelta.from_dict(meta["delta"]))
                except PlanEpochMismatch:
                    out.delta_mismatches += 1
            self._first_plan.set()
        elif frame.kind == "stats-reply":
            out.stats[int(meta["seq"])] = meta
            self._stats_reply.set()
        elif frame.kind == "error":
            print(f"WARNING: server error frame: {meta.get('message')}", file=sys.stderr)
