"""Global-RNG discipline guard (the dynamic face of REP001).

Library code must draw randomness only from explicitly-seeded generator
objects — never from the process-global numpy or stdlib RNG state the
legacy module-level functions mutate.  With the guard installed, any
such draw raises :class:`RngDisciplineError` naming the offender, so a
sanitizer run catches violations the static rule cannot see (dynamic
dispatch, third-party callbacks).

The patched name sets are the same frozensets REP001 checks
(:mod:`repro.lint.knowledge`), so the static and dynamic layers enforce
one contract.  They are imported when a guard is installed, so a
process that never sanitizes does not load the linter.
"""

from __future__ import annotations

import contextlib
import random as _random_module
from typing import Any, Callable, ContextManager, Iterator

import numpy as np

__all__ = ["GlobalRngGuard", "RngDisciplineError", "rng_discipline"]


class RngDisciplineError(RuntimeError):
    """A process-global RNG was used while the guard was installed."""


def _raiser(qualname: str) -> Callable[..., Any]:
    def _blocked(*_args: Any, **_kwargs: Any) -> Any:
        raise RngDisciplineError(
            f"{qualname} draws from process-global RNG state; construct a "
            "seeded generator (np.random.default_rng(seed) / "
            "random.Random(seed)) and thread it through instead"
        )

    return _blocked


class GlobalRngGuard:
    """Context manager making global-RNG draws raise.

    Patches the legacy ``numpy.random.*`` module functions and the
    stdlib ``random.*`` module-level functions (which share one hidden
    ``Random`` instance).  Explicit generator objects —
    ``np.random.default_rng(seed)``, ``random.Random(seed)`` — are
    untouched; that is the point.
    """

    def __init__(self) -> None:
        self._saved_np: dict[str, Any] = {}
        self._saved_random: dict[str, Any] = {}

    @property
    def installed(self) -> bool:
        return bool(self._saved_np or self._saved_random)

    def install(self) -> None:
        if self.installed:
            return
        from repro.lint.knowledge import NP_LEGACY_GLOBAL_FNS, STDLIB_RANDOM_FNS

        for name in sorted(NP_LEGACY_GLOBAL_FNS):
            if hasattr(np.random, name):
                self._saved_np[name] = getattr(np.random, name)
                setattr(np.random, name, _raiser(f"numpy.random.{name}"))
        for name in sorted(STDLIB_RANDOM_FNS):
            if hasattr(_random_module, name):
                self._saved_random[name] = getattr(_random_module, name)
                setattr(_random_module, name, _raiser(f"random.{name}"))

    def uninstall(self) -> None:
        for name, fn in self._saved_np.items():
            setattr(np.random, name, fn)
        for name, fn in self._saved_random.items():
            setattr(_random_module, name, fn)
        self._saved_np.clear()
        self._saved_random.clear()

    def __enter__(self) -> "GlobalRngGuard":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


@contextlib.contextmanager
def _null_guard() -> Iterator[None]:
    yield


def rng_discipline() -> ContextManager[Any]:
    """The guard when sanitizing is enabled, else a no-op context.

    Wrapped around the library's deterministic hot paths (system tick,
    adaptation) so a ``REPRO_SANITIZE=1`` run proves no global RNG draw
    hides inside them.
    """
    from repro import sanitize

    if sanitize.enabled():
        return GlobalRngGuard()
    return _null_guard()
