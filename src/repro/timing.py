"""The one module in this library that reads the wall clock.

Determinism contract (see DESIGN.md): simulation results are a pure
function of ``(spec, seed)``.  Wall-clock reads anywhere else in
``src/`` are flagged by reprolint rule REP002 — timing-harness code
(benchmarks, the paper's server-cost measurements, CLI progress lines)
imports :class:`Stopwatch` from here (or via :mod:`repro.metrics.cost`)
instead of touching :mod:`time` directly, which keeps the REP002
allowlist exactly one file long.

This module deliberately imports nothing from ``repro`` so any layer
(including ``repro.core``) can use it without import cycles.
"""

from __future__ import annotations

import time
from typing import Any, Callable

__all__ = [
    "Clock",
    "ManualClock",
    "Stopwatch",
    "monotonic",
    "wall_time_samples",
]

#: A clock is any zero-argument callable returning seconds as a float.
#: The live service layer (:mod:`repro.service`, :mod:`repro.loadtest`)
#: takes one as a parameter — :func:`monotonic` in production,
#: :class:`ManualClock` in deterministic tests — so this module stays
#: the only place real time enters the library.
Clock = Callable[[], float]


def monotonic() -> float:
    """Monotonic wall seconds (``CLOCK_MONOTONIC``).

    This is the live-service clock seam: on Linux the monotonic clock is
    per-boot and shared by every process on the machine, so timestamps
    stamped by a load-generator process are directly comparable to ones
    stamped by the service process (unlike ``perf_counter``, whose epoch
    is unspecified per process).
    """
    return time.monotonic()


# reprolint: disable=REP015 - test seam: the deterministic clock the
# sanitizer and adapt-timing suites inject.
class ManualClock:
    """A deterministic :data:`Clock` for tests: reads what you set.

    ::

        clock = ManualClock(start=100.0)
        clock()            # 100.0
        clock.advance(2.5)
        clock()            # 102.5
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        """Move the clock forward; returns the new reading."""
        if seconds < 0:
            raise ValueError("a monotonic clock cannot move backwards")
        self.now += seconds
        return self.now


class Stopwatch:
    """Context manager measuring elapsed wall-clock seconds.

    ::

        with Stopwatch() as sw:
            work()
        print(sw.elapsed)  # seconds

    Re-entering restarts the measurement; ``elapsed`` always holds the
    most recently completed interval.
    """

    __slots__ = ("elapsed", "_started")

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self._started: float | None = None

    def __enter__(self) -> "Stopwatch":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._started is not None:
            self.elapsed = time.perf_counter() - self._started
            self._started = None


def wall_time_samples(fn: Callable[[], Any], repeats: int) -> list[float]:
    """Wall-clock seconds of ``repeats`` calls to ``fn`` (one per call)."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    samples: list[float] = []
    for _ in range(repeats):
        with Stopwatch() as sw:
            fn()
        samples.append(sw.elapsed)
    return samples
