"""Opt-in runtime sanitizers: the dynamic counterpart to ``repro.lint``.

The static rules promise the determinism and responsiveness contracts
*hold by construction*; these sanitizers check them *while code runs*.
All of them are disabled unless ``REPRO_SANITIZE=1`` is set, so
production and default test runs pay nothing:

* :class:`~repro.sanitize.slow_callback.SlowCallbackDetector` — times
  every event-loop callback and reports ones that hog the loop past a
  threshold (the dynamic face of REP040);
* :class:`~repro.sanitize.rng_guard.GlobalRngGuard` /
  :func:`~repro.sanitize.rng_guard.rng_discipline` — make any draw from
  the process-global numpy/stdlib RNGs raise (the dynamic face of
  REP001);
* :func:`~repro.sanitize.errstate.vector_errstate` — runs the vector
  kernels under ``np.errstate(invalid="raise", over="raise")`` so NaNs
  and overflows fail loudly instead of propagating into plans.

This package is the one library environment-variable seam (REP004):
the ``REPRO_SANITIZE*`` reads below are the one sanctioned place the
switches are consulted — everything else calls these helpers.
"""

from __future__ import annotations

import os

from repro.sanitize.errstate import vector_errstate
from repro.sanitize.rng_guard import GlobalRngGuard, RngDisciplineError, rng_discipline
from repro.sanitize.slow_callback import SlowCallback, SlowCallbackDetector

__all__ = [
    "GlobalRngGuard",
    "RngDisciplineError",
    "SlowCallback",
    "SlowCallbackDetector",
    "enabled",
    "rng_discipline",
    "slow_callback_threshold_s",
    "vector_errstate",
]

#: Truthy spellings accepted for ``REPRO_SANITIZE``.
_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Default slow-callback threshold when ``REPRO_SANITIZE_SLOW_MS`` is unset.
DEFAULT_SLOW_CALLBACK_MS = 100.0


def enabled() -> bool:
    """True when ``REPRO_SANITIZE`` requests the runtime sanitizers."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in _TRUTHY


def slow_callback_threshold_s() -> float:
    """Slow-callback threshold in seconds (``REPRO_SANITIZE_SLOW_MS``)."""
    raw = os.environ.get("REPRO_SANITIZE_SLOW_MS", "")
    try:
        millis = float(raw)
    except ValueError:
        millis = DEFAULT_SLOW_CALLBACK_MS
    return max(0.0, millis) / 1000.0
