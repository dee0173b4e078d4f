"""The node engine's station walk and threshold gather in their plain forms.

``VectorNodeEngine.compute_thresholds`` answers most rows from a per-cell
image of Δ and sends only the rest through the per-station rasters.
:func:`full_gather_thresholds` is the gather it ran before the image
existed — *every* row with an installed subset grouped by station and
looked up in that station's raster (the monitoring space closed, so the
last regions own its upper edges) — over the engine's own post-tick
protocol state, with each raster built from scratch (no cache, no
``repaint``), so the image, its lazy per-slot painting and the raster
reuse are all checked against it.

``StationAssigner.locate`` reads most contested rows from a per-cell split
proved when the raster is built.  :func:`hypot_locate` is the same walk with
that split table emptied, so every contested row takes the ``np.hypot``
resolve, and :func:`int_cells_of` the int64-cast cell index the float form
of ``cells_of`` replaced.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.server.node_engine import StationAssigner, VectorNodeEngine, _ThresholdRaster


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
    subsets = [engine.network.subset_or_none(s.station_id) for s in engine.assigner.stations]
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
            raster = _ThresholdRaster(regions, engine.assigner.bounds)
            values[span] = raster.thresholds_at(xs[span], ys[span])
    out = np.full(x.size, default, dtype=np.float64)
    out[order] = np.where(np.isnan(values), default, values)
    thresholds = np.full(engine.n_nodes, np.inf, dtype=np.float64)
    thresholds[rows] = out
    return thresholds


def hypot_locate(
    assigner: StationAssigner, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``assigner.locate(x, y)`` with no side of any cell proved, so every
    contested row is resolved by ``np.hypot`` (on a shallow copy:
    ``assigner`` is untouched)."""
    oracle = copy.copy(assigner)
    oracle._split_slot = np.full_like(assigner._split_slot, -1)
    return oracle.locate(x, y)


def int_cells_of(assigner: StationAssigner, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Flat fine-raster cell of each in-bounds position, by int64 casts."""
    b, last = assigner.bounds, assigner.fine_resolution - 1
    cells = np.minimum(((x - b.x1) / assigner._cell_w).astype(np.int64), last)
    cells *= assigner.fine_resolution
    cells += np.minimum(((y - b.y1) / assigner._cell_h).astype(np.int64), last)
    return cells
