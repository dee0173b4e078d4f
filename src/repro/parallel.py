"""Shared parallelism helpers.

Both process-pool users in this repository face the question whether a
pool can beat the serial loop at all (:func:`pool_is_profitable`).  The
experiment job executor (:func:`repro.experiments.runner.run_jobs`)
also takes a worker count from its caller, every usable CPU when none
is given; the lint driver (:mod:`repro.lint.engine`) takes none and
picks its own execution from its file count.  Answering the shared question in one
place keeps the fallback behaviour identical across seams (and keeps
the single-core pessimization documented once).  Both count CPUs with
:func:`usable_cpus`, as :func:`run_beside` does.

:func:`run_beside` is the one thread-level overlap, used by
:meth:`repro.server.LiraSystem.tick`: numpy releases the GIL inside its
ufunc loops, so on two cores the shorter of two numpy-bound calls hides
under the longer.

This module deliberately imports nothing from ``repro`` so any layer
can use it without import cycles.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from pathlib import Path
from typing import Any, Callable, TypeVar

import numpy as np

__all__ = ["pool_is_profitable", "run_beside", "usable_cpus"]

M = TypeVar("M")
S = TypeVar("S")


def pool_is_profitable(n_workers: int, n_jobs: int) -> bool:
    """Whether a process pool can possibly beat the serial loop.

    On a single-core host the pool serializes the same work behind
    fork/pickle overhead (measured ~6% slower on the medium z-sweep),
    and a single job has no parallelism to exploit — both cases should
    run in-process and be reported as such, not as a "speedup" row.
    """
    return n_workers > 1 and n_jobs > 1 and usable_cpus() > 1


def usable_cpus() -> int:
    """CPUs this process may use now: its affinity mask where the OS
    reports one (``taskset`` narrows it), else the machine's count,
    capped by the CPU quota of its cgroup (``docker --cpus`` sets it),
    rounded up."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    quota = _cgroup_cpu_quota()
    return max(1, math.ceil(quota)) if quota < cpus else cpus


@functools.cache
def _cgroup_cpu_quota(root: str = "/sys/fs/cgroup") -> float:
    """CPUs' worth of time per period the cgroup mounted at ``root`` may
    use: cgroup v2 ``cpu.max``, else v1 ``cpu/cpu.cfs_quota_us`` over
    ``cpu/cpu.cfs_period_us``; ``inf`` with no quota or no such files.
    Read once per process."""
    base = Path(root)
    try:
        quota, period = (base / "cpu.max").read_text().split()
    except OSError:
        try:
            quota = (base / "cpu" / "cpu.cfs_quota_us").read_text().strip()
            period = (base / "cpu" / "cpu.cfs_period_us").read_text().strip()
        except OSError:
            return math.inf
    return math.inf if quota in ("max", "-1") else int(quota) / int(period)


def run_beside(
    side: Callable[[], S], main: Callable[[], M], *, overlap: bool = True
) -> tuple[M, S]:
    """Return ``(main(), side())``, running ``side`` on a helper thread
    while ``main`` runs on the caller's.

    ``side`` runs under the caller's ``np.errstate``, read here and set
    on the helper (a per-thread setting in numpy 1, a context variable
    in numpy 2; neither reaches a new thread by itself).  The thread is
    joined before this returns, whatever ``main`` does; an exception
    from ``side`` is re-raised here after the join (one from ``main``
    takes precedence).  One thread per call, not a pool: nothing
    outlives the call, so a process forked between calls inherits no
    worker it wrongly believes idle.

    With ``overlap=False`` (the caller knows ``side`` is too short to
    pay for a thread's start and join, ≈ 0.35 ms wall on a 2-core x86
    container) or one usable CPU (:func:`usable_cpus`) there is no
    thread: ``main`` then ``side`` run in turn here.  On one CPU a
    thread only time-slices with the caller, which cost ≈ 0.8 ms of a
    10 ms tick.
    """
    if not overlap or usable_cpus() < 2:
        return main(), side()
    errstate = np.geterr()
    outcome: dict[str, Any] = {}

    def target() -> None:
        try:
            with np.errstate(**errstate):
                outcome["value"] = side()
        except BaseException as exc:  # re-raised on the caller's thread
            outcome["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    try:
        result = main()
    finally:
        thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return result, outcome["value"]
