"""CLI: run one live LIRA service process.

::

    python -m repro.service --socket /tmp/lira.sock --policy lira \
        --n-nodes 400 --service-rate 1500 --queue-capacity 600

The scenario (bounds, query workload, LIRA parameters) is a pure
function of the flags, so a load generator launched with the same
values reconstructs the identical scenario on its side.  Prints one
``listening ...`` line once it serves a plan on a bound socket — process
supervisors (and the loadtest ``--spawn`` path) wait for it.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import logging
import sys

from repro.service.service import ServiceConfig
from repro.shedding import POLICIES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run a live LIRA mobile-CQ service endpoint.",
    )
    bind = parser.add_mutually_exclusive_group(required=True)
    bind.add_argument("--socket", help="unix socket path to bind")
    bind.add_argument(
        "--port",
        type=int,
        help="TCP port to bind on 127.0.0.1 (0 picks a free port)",
    )
    parser.add_argument("--policy", choices=tuple(POLICIES), default="lira")
    parser.add_argument("--side", type=float, default=10_000.0)
    parser.add_argument("--n-nodes", type=int, default=400)
    parser.add_argument("--n-queries", type=int, default=20)
    parser.add_argument("--query-side", type=float, default=1_500.0)
    parser.add_argument("--workload-seed", type=int, default=7)
    parser.add_argument("--service-rate", type=float, default=1_500.0)
    parser.add_argument("--queue-capacity", type=int, default=600)
    parser.add_argument("--adapt-period", type=float, default=0.5)
    parser.add_argument("--station-radius", type=float, default=4_000.0)
    parser.add_argument("--regions", type=int, default=13, dest="l")
    parser.add_argument("--alpha", type=int, default=16)
    parser.add_argument("--delta-min", type=float, default=5.0)
    parser.add_argument("--delta-max", type=float, default=100.0)
    parser.add_argument(
        "--slowdown-prob",
        type=float,
        default=0.0,
        help="per-measurement probability a service slowdown episode starts",
    )
    parser.add_argument("--slowdown-factor", type=float, default=0.3)
    parser.add_argument("--slowdown-duration", type=float, default=0.0)
    parser.add_argument("--log-level", default="WARNING")
    return parser


def config_from_args(args: argparse.Namespace) -> ServiceConfig:
    return ServiceConfig(
        side=args.side,
        n_nodes=args.n_nodes,
        n_queries=args.n_queries,
        query_side=args.query_side,
        workload_seed=args.workload_seed,
        service_rate=args.service_rate,
        queue_capacity=args.queue_capacity,
        policy=args.policy,
        adapt_period=args.adapt_period,
        station_radius=args.station_radius,
        l=args.l,
        alpha=args.alpha,
        delta_min=args.delta_min,
        delta_max=args.delta_max,
        slowdown_prob=args.slowdown_prob,
        slowdown_factor=args.slowdown_factor,
        slowdown_duration=args.slowdown_duration,
    )


async def run(args: argparse.Namespace) -> None:
    service = config_from_args(args).build()
    if args.socket is not None:
        await service.start(path=args.socket)
        endpoint = args.socket
    else:
        await service.start(port=args.port)
        endpoint = f"127.0.0.1:{service.bound_port}"
    print(f"listening {endpoint} policy={service.policy}", flush=True)
    try:
        await service.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await service.stop()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper(), logging.WARNING))
    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(run(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
