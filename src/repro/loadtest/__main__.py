"""CLI: open-loop load test against a live LIRA service.

Against an already-running service::

    python -m repro.loadtest --socket /tmp/lira.sock --overload 4

Or spawn the matching service subprocess first (scenario flags are
forwarded so both sides build the identical scenario)::

    python -m repro.loadtest --spawn --policy lira --overload 4 \
        --duration 10 --slo-p99-ms 150

Prints the :class:`~repro.loadtest.LoadtestReport` as JSON.  With
``--check``, exits non-zero when the declared SLO is violated or the
service refused any frame (``protocol_errors`` in its final ``stats``
reply: the sender sends only well-formed frames).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import tempfile

from repro import timing
from repro.geo import Rect
from repro.loadtest.runner import run_loadtest
from repro.loadtest.schedule import PROFILES, LoadProfile, OpenLoopSchedule
from repro.metrics.slo import SLOSpec

#: How long to retry connecting to a spawned service's socket.
SPAWN_CONNECT_TIMEOUT_S = 10.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.loadtest",
        description="Open-loop load test against a live LIRA service.",
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--socket", help="unix socket of a running service")
    target.add_argument("--port", type=int, help="TCP port of a running service")
    target.add_argument(
        "--spawn",
        action="store_true",
        help="spawn a matching service subprocess on a temporary unix socket",
    )
    parser.add_argument("--policy", choices=("lira", "random-drop"), default="lira")
    parser.add_argument("--overload", type=float, default=4.0)
    parser.add_argument("--duration", type=float, default=10.0)
    parser.add_argument("--warmup", type=float, default=3.0)
    parser.add_argument("--profile", choices=PROFILES, default="constant")
    parser.add_argument("--profile-factor", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=0)
    # Scenario flags (must match the service's; forwarded on --spawn).
    parser.add_argument("--side", type=float, default=10_000.0)
    parser.add_argument("--n-nodes", type=int, default=400)
    parser.add_argument("--n-queries", type=int, default=20)
    parser.add_argument("--query-side", type=float, default=1_500.0)
    parser.add_argument("--workload-seed", type=int, default=7)
    parser.add_argument("--service-rate", type=float, default=1_500.0)
    parser.add_argument("--queue-capacity", type=int, default=600)
    parser.add_argument("--adapt-period", type=float, default=0.5)
    parser.add_argument("--delta-min", type=float, default=5.0)
    parser.add_argument("--slowdown-prob", type=float, default=0.0)
    parser.add_argument("--slowdown-factor", type=float, default=0.3)
    parser.add_argument("--slowdown-duration", type=float, default=0.0)
    # SLO bounds (ms); unset percentiles are unconstrained.
    parser.add_argument("--slo-p50-ms", type=float, default=None)
    parser.add_argument("--slo-p95-ms", type=float, default=None)
    parser.add_argument("--slo-p99-ms", type=float, default=150.0)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when the declared SLO is violated or the service refused a frame",
    )
    parser.add_argument("--output", help="also write the JSON report to this path")
    return parser


def spawn_service(args: argparse.Namespace, socket_path: str) -> subprocess.Popen:
    cmd = [
        sys.executable,
        "-m",
        "repro.service",
        "--socket",
        socket_path,
        "--policy",
        args.policy,
        "--side",
        str(args.side),
        "--n-nodes",
        str(args.n_nodes),
        "--n-queries",
        str(args.n_queries),
        "--query-side",
        str(args.query_side),
        "--workload-seed",
        str(args.workload_seed),
        "--service-rate",
        str(args.service_rate),
        "--queue-capacity",
        str(args.queue_capacity),
        "--adapt-period",
        str(args.adapt_period),
        "--delta-min",
        str(args.delta_min),
        "--slowdown-prob",
        str(args.slowdown_prob),
        "--slowdown-factor",
        str(args.slowdown_factor),
        "--slowdown-duration",
        str(args.slowdown_duration),
    ]
    env = dict(os.environ)
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)


async def wait_for_socket(path: str, timeout: float) -> None:
    """Retry-connect until the spawned service is accepting."""
    deadline = timing.monotonic() + timeout
    while True:
        try:
            _, writer = await asyncio.open_unix_connection(path)
            writer.close()
            return
        except (ConnectionRefusedError, FileNotFoundError):
            if timing.monotonic() >= deadline:
                raise TimeoutError(f"service at {path} never came up")
            await asyncio.sleep(0.05)


async def run(args: argparse.Namespace) -> dict:
    schedule = OpenLoopSchedule.build(
        bounds=Rect(0.0, 0.0, args.side, args.side),
        n_nodes=args.n_nodes,
        duration=args.duration,
        overload=args.overload,
        service_rate=args.service_rate,
        profile=LoadProfile(name=args.profile, factor=args.profile_factor),
        seed=args.seed,
    )
    slo = SLOSpec(
        name=f"ingest-{args.policy}",
        p50_ms=args.slo_p50_ms,
        p95_ms=args.slo_p95_ms,
        p99_ms=args.slo_p99_ms,
    )
    process: subprocess.Popen | None = None
    tmpdir: tempfile.TemporaryDirectory | None = None
    socket_path = args.socket
    try:
        if args.spawn:
            tmpdir = tempfile.TemporaryDirectory(prefix="lira-loadtest-")
            socket_path = os.path.join(tmpdir.name, "lira.sock")
            # One-shot fork/exec before the measurement window opens;
            # nothing else is scheduled on the loop yet, so briefly
            # blocking it here cannot distort measured latencies.
            process = spawn_service(args, socket_path)  # reprolint: disable=REP040
            await wait_for_socket(socket_path, SPAWN_CONNECT_TIMEOUT_S)
        report = await run_loadtest(
            schedule,
            slo=slo,
            path=socket_path,
            port=args.port,
            warmup_s=args.warmup,
            default_delta=args.delta_min,
        )
        doc = report.to_dict()
        doc["policy"] = args.policy
        return doc
    finally:
        if process is not None:
            process.terminate()
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if tmpdir is not None:
            tmpdir.cleanup()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    doc = asyncio.run(run(args))
    text = json.dumps(doc, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    if not args.check:
        return 0
    slo_violated = doc.get("ingest_slo") and not doc["ingest_slo"]["ok"]
    refused = doc["server_stats"].get("protocol_errors", 0) > 0
    return 1 if slo_violated or refused else 0


if __name__ == "__main__":
    sys.exit(main())
