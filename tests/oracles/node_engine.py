"""The node engine's threshold gather without its Δ image.

``VectorNodeEngine.compute_thresholds`` answers most rows from a per-cell
image of Δ and sends only the rest through the per-station rasters.  This
is the gather it ran before the image existed — *every* row with an
installed subset grouped by station and looked up in that station's
raster — over the engine's own post-tick protocol state, with each
raster built from scratch (no cache, no ``repaint``), so the image, its
lazy per-slot painting and the raster reuse are all checked against it.
"""

from __future__ import annotations

import numpy as np

from repro.server.node_engine import VectorNodeEngine, _ThresholdRaster


def full_gather_thresholds(
    engine: VectorNodeEngine,
    positions: np.ndarray,
    active: np.ndarray | None,
    default: float,
) -> np.ndarray:
    """Per-node Δ for the tick ``engine`` just computed; inactive → ``inf``."""
    rows = slice(None) if active is None else np.flatnonzero(active)
    x, y = positions[rows, 0], positions[rows, 1]
    slots = engine._station_slot[rows]
    _, subsets = engine._station_state()
    have = np.flatnonzero(engine._installed_version[rows] >= 0)
    group = slots[have]
    order = have[np.argsort(group, kind="stable")]
    xs, ys = x[order], y[order]
    values = np.full(order.size, np.nan, dtype=np.float64)
    counts = np.bincount(group, minlength=len(subsets))
    ends = np.cumsum(counts)
    for slot in np.flatnonzero(counts):
        regions = subsets[slot].regions
        if regions:
            span = slice(ends[slot] - counts[slot], ends[slot])
            values[span] = _ThresholdRaster(regions).thresholds_at(xs[span], ys[span])
    out = np.full(x.size, default, dtype=np.float64)
    out[order] = np.where(np.isnan(values), default, values)
    thresholds = np.full(engine.n_nodes, np.inf, dtype=np.float64)
    thresholds[rows] = out
    return thresholds
