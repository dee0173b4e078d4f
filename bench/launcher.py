"""Traced twin of ``python -m repro.service`` (same flags, same object).

Builds ``ServiceConfig(...).build()``, puts spans around its layers from
outside, serves on the socket, and on SIGTERM writes the spans and the
incremental-session counters to ``--spans-out``.  The process topology
is that of the untraced run: one service process, one sender.
"""

from __future__ import annotations

import asyncio
import json
import signal
import statistics
import sys

from repro.service.__main__ import build_parser, config_from_args

from layers import wrap_service
from spans import Tracer


async def serve(service, socket_path: str) -> None:
    await service.start(path=socket_path)
    print(f"listening {socket_path} policy={service.policy} traced", flush=True)
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    try:
        await stop.wait()
    finally:
        await service.stop()


def main() -> int:
    parser = build_parser()
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args()
    service = config_from_args(args).build()
    tracer = Tracer()
    grids: list = []
    dirty_fracs: list[float] = []

    def on_grid(grid) -> None:
        grids.append(grid)
        if len(grids) == 2:
            old = grids.pop(0)
            dirty_fracs.append(
                float(((old.n != grid.n) | (old.m != grid.m) | (old.s != grid.s)).mean())
            )

    wrap_service(tracer, service, on_grid)
    traced_ingest = service.apply_ingest

    def numbered_ingest(*a, **k):
        tracer.request += 1  # spans carry the ordinal of the latest ingest frame
        return traced_ingest(*a, **k)

    service.apply_ingest = numbered_ingest
    tracer.enabled = True
    try:
        asyncio.run(serve(service, args.socket))
    finally:
        tracer.enabled = False
        memo = service.shedder.session.gridreduce if service.shedder.session else None
        with open(args.spans_out, "w") as fh:
            json.dump(
                {
                    "spans": tracer.spans,
                    "missing": tracer.missing,
                    "memo_hits": memo.hits if memo else 0,
                    "memo_misses": memo.misses if memo else 0,
                    "dirty_cell_frac": statistics.fmean(dirty_fracs) if dirty_fracs else 0.0,
                },
                fh,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
