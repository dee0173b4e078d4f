"""Shared process-pool heuristics.

Both pool users in this repository — the experiment sweep engine
(:mod:`repro.experiments.runner`) and the lint driver
(:mod:`repro.lint.engine`) — face the same two questions: how many
workers by default, and whether a pool can beat the serial loop at all.
Answering them in one place keeps the fallback behaviour identical
across seams (and keeps the single-core pessimization documented once).

This module deliberately imports nothing from ``repro`` so any layer
can use it without import cycles.
"""

from __future__ import annotations

import os

__all__ = ["default_jobs", "pool_is_profitable"]


def default_jobs() -> int:
    """Worker count when the caller does not specify one: all cores."""
    return os.cpu_count() or 1


def pool_is_profitable(n_workers: int, n_jobs: int) -> bool:
    """Whether a process pool can possibly beat the serial loop.

    On a single-core host the pool serializes the same work behind
    fork/pickle overhead (measured ~6% slower on the medium z-sweep),
    and a single job has no parallelism to exploit — both cases should
    run in-process and be reported as such, not as a "speedup" row.
    """
    return n_workers > 1 and n_jobs > 1 and (os.cpu_count() or 1) > 1
