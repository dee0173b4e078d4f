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
import sys
import tempfile

from repro.geo import Rect
from repro.loadtest.runner import run_loadtest
from repro.loadtest.schedule import PROFILES, LoadProfile, OpenLoopSchedule
from repro.metrics.slo import SLOSpec
from repro.shedding import POLICIES

#: How long a spawned service may take to print its ``listening`` line.
SPAWN_LISTEN_TIMEOUT_S = 10.0


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
    parser.add_argument("--policy", choices=tuple(POLICIES), default="lira")
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


async def spawn_service(
    args: argparse.Namespace, socket_path: str
) -> asyncio.subprocess.Process:
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
    return await asyncio.create_subprocess_exec(*cmd, stdout=asyncio.subprocess.PIPE)


async def wait_until_listening(process: asyncio.subprocess.Process) -> None:
    """Wait for the service's ``listening`` line: it serves a plan from then on.

    A service that exits first fails the run at once, naming its exit status.
    """
    assert process.stdout is not None
    line = await asyncio.wait_for(process.stdout.readline(), SPAWN_LISTEN_TIMEOUT_S)
    if not line.startswith(b"listening"):
        status = await process.wait()
        raise RuntimeError(f"spawned service exited with status {status} before listening")


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
    process: asyncio.subprocess.Process | None = None
    tmpdir: tempfile.TemporaryDirectory | None = None
    socket_path = args.socket
    try:
        if args.spawn:
            tmpdir = tempfile.TemporaryDirectory(prefix="lira-loadtest-")
            socket_path = os.path.join(tmpdir.name, "lira.sock")
            process = await spawn_service(args, socket_path)
            await wait_until_listening(process)
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
        if process is not None and process.returncode is None:
            process.terminate()
            try:
                await asyncio.wait_for(process.wait(), 5.0)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()
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
