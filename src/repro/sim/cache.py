"""Persistent, content-addressed trace/scenario cache.

:func:`~repro.sim.scenario.build_scenario` memoizes in-process, but every
spawn-mode pool worker and every fresh CLI invocation starts with a cold
``lru_cache`` and used to regenerate identical traces and reduction
curves from scratch.  This module adds the missing layer: artifacts are
stored on disk under a key derived from a hash of the full generating
spec plus a cache-format version, so any process that asks for the same
scenario loads it in milliseconds.

Layout (under :func:`cache_dir`, default ``~/.cache/lira-repro``, or
``$REPRO_CACHE_DIR``)::

    traces/<key>.npz       Trace.save output
    reductions/<key>.npz   empirical PiecewiseLinearReduction knots/values

Writes are atomic (temp file + ``os.replace``), so concurrent pool
workers racing to fill the same entry are safe — last writer wins with
identical bytes.  The cache is best-effort: unreadable or stale entries
are regenerated, and I/O errors fall back to computing.

Disable with ``REPRO_NO_CACHE=1`` (the ``--no-cache`` CLI flag sets this
through :func:`set_cache_enabled`, which uses the environment so spawned
pool workers inherit the setting).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.core.reduction import PiecewiseLinearReduction
from repro.trace import TRACE_FORMAT_VERSION, Trace

#: Bumped whenever cached artifacts would no longer be reproducible from
#: the same spec (e.g. a change to the trace engine or the road-network
#: generator) or the spec's key fields change (2: ``engine`` left the
#: key).  Old entries are simply never looked up again.
CACHE_FORMAT_VERSION = 2

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_NO_CACHE = "REPRO_NO_CACHE"

_TRUTHY = ("1", "true", "yes", "on")


def cache_enabled() -> bool:
    """Whether the persistent cache is consulted at all."""
    return os.environ.get(ENV_NO_CACHE, "").lower() not in _TRUTHY


def set_cache_enabled(enabled: bool) -> None:
    """Toggle the cache process-wide (inherited by spawned pool workers)."""
    if enabled:
        os.environ.pop(ENV_NO_CACHE, None)
    else:
        os.environ[ENV_NO_CACHE] = "1"


def cache_dir() -> Path:
    """Root of the on-disk cache (``$REPRO_CACHE_DIR`` overrides)."""
    override = os.environ.get(ENV_CACHE_DIR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "lira-repro"


def cache_key(kind: str, **spec) -> str:
    """Content address for one artifact: hash of the canonical spec.

    ``kind`` namespaces artifact types; the cache and trace format
    versions are folded in so format changes never resurrect stale
    entries.
    """
    payload = json.dumps(
        {
            "kind": kind,
            "cache_format": CACHE_FORMAT_VERSION,
            "trace_format": TRACE_FORMAT_VERSION,
            **spec,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def _atomic_write(path: Path, write) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    # The suffix must stay ".npz": numpy's savez appends it to other names,
    # which would orphan the temp file and skip the rename.
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp.npz")
    os.close(fd)
    tmp = Path(tmp_name)
    try:
        write(tmp)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# traces


def trace_path(key: str) -> Path:
    return cache_dir() / "traces" / f"{key}.npz"


def load_trace(key: str) -> Trace | None:
    """The cached trace for ``key``, or ``None`` on miss/disabled/corrupt."""
    if not cache_enabled():
        return None
    path = trace_path(key)
    if not path.exists():
        return None
    try:
        return Trace.load(path)
    except (OSError, ValueError, KeyError):
        return None


def store_trace(key: str, trace: Trace) -> None:
    """Persist a trace under ``key`` (no-op when the cache is disabled).

    Entries are written uncompressed: cache hits exist to be fast, and
    decompression would dominate the load.
    """
    if not cache_enabled():
        return
    _atomic_write(trace_path(key), lambda path: trace.save(path, compressed=False))


# ----------------------------------------------------------------------
# empirical reduction curves


def reduction_path(key: str) -> Path:
    return cache_dir() / "reductions" / f"{key}.npz"


def load_reduction(key: str) -> PiecewiseLinearReduction | None:
    """The cached empirical reduction for ``key``, or ``None``."""
    if not cache_enabled():
        return None
    path = reduction_path(key)
    if not path.exists():
        return None
    try:
        with np.load(path) as data:
            version = int(data["version"][0])
            if version > CACHE_FORMAT_VERSION:
                return None
            return PiecewiseLinearReduction(data["knots"], data["values"])
    except (OSError, ValueError, KeyError):
        return None


def store_reduction(key: str, reduction: PiecewiseLinearReduction) -> None:
    """Persist an empirical reduction curve under ``key``."""
    if not cache_enabled():
        return

    def write(path: Path) -> None:
        np.savez(
            path,
            knots=reduction.knots,
            values=reduction.values,
            version=np.array([CACHE_FORMAT_VERSION], dtype=np.int64),
        )

    _atomic_write(reduction_path(key), write)


def purge() -> int:
    """Delete every cached artifact; returns the number of files removed."""
    removed = 0
    for sub in ("traces", "reductions"):
        directory = cache_dir() / sub
        if not directory.is_dir():
            continue
        for path in directory.glob("*.npz"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    return removed
