"""Shedding plans: the artifact LIRA computes and distributes.

A :class:`SheddingPlan` pairs every shedding region with its update
throttler Δᵢ and supports the one operation mobile nodes need: "which Δ
applies at my position?"  Lookup is O(1) via a rasterized region-id grid
— valid because every partitioning this library produces (quad-tree
blocks, uniform l-partitionings) aligns its region boundaries to
statistics-grid cell boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.geo import Rect
from repro.core.config import LiraConfig
from repro.core.greedy import RegionStats


def clamp_thresholds(thresholds: np.ndarray, config: LiraConfig) -> np.ndarray:
    """Project throttlers into the paper's invariants (a copy is returned).

    Enforces the Δ domain ``Δ⊢ ≤ Δᵢ ≤ Δ⊣`` and the fairness spread
    ``max Δᵢ − min Δᵢ ≤ Δ⇔`` (by lowering outliers toward
    ``min Δᵢ + Δ⇔``).  ``greedy_increment`` constructs thresholds inside
    these bounds already; hand-built threshold vectors — trivial plans,
    ablations, test fixtures — must route through this helper before
    reaching :meth:`SheddingPlan.from_regions` (reprolint rule REP020).
    """
    out = np.array(thresholds, dtype=np.float64, copy=True)
    if out.size == 0:
        return out
    np.clip(out, config.delta_min, config.delta_max, out=out)
    if config.fairness is not None:
        ceiling = float(out.min()) + config.fairness
        np.clip(out, None, ceiling, out=out)
    return out


@dataclass(frozen=True, slots=True)
class SheddingRegion:
    """One shedding region with its assigned update throttler."""

    rect: Rect
    delta: float
    n: float
    m: float
    s: float


class PlanEpochMismatch(ValueError):
    """A delta's base epoch does not match the plan it is applied to.

    Receivers catch this to request a full-plan resync instead of
    silently applying a delta against the wrong baseline.
    """


@dataclass(frozen=True, slots=True)
class PlanDelta:
    """The per-region difference between two same-geometry plans.

    Region rectangles are unchanged by construction (geometry changes
    cannot be expressed as a delta — :meth:`SheddingPlan.diff` returns
    ``None`` and senders fall back to a full-plan push).  ``changes``
    lists ``(region_index, delta, n, m, s)`` for every region whose
    update throttler changed — the part mobile nodes must learn, and
    the part broadcast airtime is charged for.  ``stat_changes`` lists
    ``(region_index, n, m, s)`` for regions whose statistics drifted
    while the throttler stayed put: server-side bookkeeping that rides
    along so :meth:`SheddingPlan.apply_delta` reconstructs the target
    plan exactly, but costs no wireless payload.  ``base_epoch`` is the
    epoch the delta applies on top of; ``epoch`` the epoch of the
    resulting plan.
    """

    base_epoch: int
    epoch: int
    num_regions: int
    changes: tuple[tuple[int, float, float, float, float], ...]
    stat_changes: tuple[tuple[int, float, float, float], ...] = ()

    def to_dict(self) -> dict:
        """A JSON-serializable description of the delta."""
        return {
            "format": "repro.plan-delta",
            "version": 1,
            "base_epoch": self.base_epoch,
            "epoch": self.epoch,
            "num_regions": self.num_regions,
            "changes": [list(change) for change in self.changes],
            "stat_changes": [list(change) for change in self.stat_changes],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PlanDelta":
        """Rebuild a delta written by :meth:`to_dict`."""
        if doc.get("format") != "repro.plan-delta":
            raise ValueError("not a repro plan-delta document")
        if doc.get("version") != 1:
            raise ValueError(f"unsupported delta version {doc.get('version')!r}")
        return cls(
            base_epoch=int(doc["base_epoch"]),
            epoch=int(doc["epoch"]),
            num_regions=int(doc["num_regions"]),
            changes=tuple(
                (int(i), float(d), float(n), float(m), float(s))
                for i, d, n, m, s in doc["changes"]
            ),
            stat_changes=tuple(
                (int(i), float(n), float(m), float(s))
                for i, n, m, s in doc.get("stat_changes", [])
            ),
        )


class SheddingPlan:
    """A complete load-shedding configuration for the monitoring space.

    Construct via :meth:`from_regions`.  ``resolution`` must be fine
    enough that every region boundary lies on a raster line (for
    LIRA plans pass the statistics-grid α; for uniform k×k plans pass a
    multiple of k).  Misaligned regions raise at construction rather
    than silently mis-assigning thresholds.
    """

    def __init__(
        self,
        bounds: Rect,
        regions: list[SheddingRegion],
        id_grid: np.ndarray,
        epoch: int = 0,
    ) -> None:
        self.bounds = bounds
        self.regions = regions
        self.epoch = epoch
        self._id_grid = id_grid
        self._resolution = id_grid.shape[0]
        self._deltas = np.array([r.delta for r in regions], dtype=np.float64)
        self._rect_arrays: tuple[np.ndarray, ...] | None = None

    @classmethod
    def from_regions(
        cls,
        bounds: Rect,
        regions: list[RegionStats],
        thresholds: np.ndarray,
        resolution: int,
        epoch: int = 0,
    ) -> "SheddingPlan":
        """Build a plan from partitioning output + greedy thresholds."""
        if len(regions) != len(thresholds):
            raise ValueError("one threshold per region is required")
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        shed_regions = [
            SheddingRegion(
                rect=reg.rect, delta=float(d), n=reg.n, m=reg.m, s=reg.s
            )
            for reg, d in zip(regions, thresholds)
        ]
        id_grid = cls._rasterize(bounds, shed_regions, resolution)
        return cls(bounds=bounds, regions=shed_regions, id_grid=id_grid, epoch=epoch)

    def with_content(
        self,
        regions: list[RegionStats],
        thresholds: np.ndarray,
        epoch: int,
    ) -> "SheddingPlan":
        """A same-geometry plan with new thresholds/statistics.

        Shares this plan's rasterized id grid (and its rectangles)
        instead of re-rasterizing.  The caller guarantees ``regions``
        carry exactly this plan's rectangles in order — the shedder
        establishes that from the partition's coordinate list — and the
        result is the plan :meth:`from_regions` would build, in
        O(regions) time.
        """
        if not len(regions) == len(self.regions) == len(thresholds):
            raise ValueError("with_content requires one region and threshold per region")
        shed_regions = [
            SheddingRegion(rect=old.rect, delta=d, n=reg.n, m=reg.m, s=reg.s)
            for old, reg, d in zip(
                self.regions, regions, np.asarray(thresholds, dtype=np.float64).tolist()
            )
        ]
        return SheddingPlan(
            bounds=self.bounds,
            regions=shed_regions,
            id_grid=self._id_grid,
            epoch=epoch,
        )

    @staticmethod
    def _rasterize(
        bounds: Rect, regions: list[SheddingRegion], resolution: int
    ) -> np.ndarray:
        cell_w = bounds.width / resolution
        cell_h = bounds.height / resolution
        id_grid = np.full((resolution, resolution), -1, dtype=np.int64)
        tol = 1e-6 * max(cell_w, cell_h)
        for region_id, region in enumerate(regions):
            rect = region.rect
            i_lo = int(round((rect.x1 - bounds.x1) / cell_w))
            i_hi = int(round((rect.x2 - bounds.x1) / cell_w))
            j_lo = int(round((rect.y1 - bounds.y1) / cell_h))
            j_hi = int(round((rect.y2 - bounds.y1) / cell_h))
            aligned = (
                abs(bounds.x1 + i_lo * cell_w - rect.x1) <= tol
                and abs(bounds.x1 + i_hi * cell_w - rect.x2) <= tol
                and abs(bounds.y1 + j_lo * cell_h - rect.y1) <= tol
                and abs(bounds.y1 + j_hi * cell_h - rect.y2) <= tol
            )
            if not aligned:
                raise ValueError(
                    f"region {region_id} ({rect}) is not aligned to a "
                    f"{resolution}x{resolution} raster of the bounds"
                )
            id_grid[i_lo:i_hi, j_lo:j_hi] = region_id
        if np.any(id_grid < 0):
            raise ValueError("regions do not tile the monitoring space")
        return id_grid

    @property
    def num_regions(self) -> int:
        return len(self.regions)

    @property
    def thresholds(self) -> np.ndarray:
        """Per-region Δᵢ, in region order (copy)."""
        return self._deltas.copy()

    def rect_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Region rectangles as ``(x1, y1, x2, y2)`` arrays (cached).

        Vectorized geometry consumers (base-station coverage) read the
        region layout from these instead of walking ``regions``.  Built
        lazily once per plan; treat the arrays as read-only.
        """
        if self._rect_arrays is None:
            self._rect_arrays = (
                np.array([r.rect.x1 for r in self.regions], dtype=np.float64),
                np.array([r.rect.y1 for r in self.regions], dtype=np.float64),
                np.array([r.rect.x2 for r in self.regions], dtype=np.float64),
                np.array([r.rect.y2 for r in self.regions], dtype=np.float64),
            )
        return self._rect_arrays

    def region_ids_for(self, positions: np.ndarray) -> np.ndarray:
        """Region index for each position (n, 2); out-of-bounds clamps."""
        positions = np.asarray(positions, dtype=np.float64)
        ix = (
            (positions[:, 0] - self.bounds.x1)
            / self.bounds.width
            * self._resolution
        ).astype(np.int64)
        iy = (
            (positions[:, 1] - self.bounds.y1)
            / self.bounds.height
            * self._resolution
        ).astype(np.int64)
        np.clip(ix, 0, self._resolution - 1, out=ix)
        np.clip(iy, 0, self._resolution - 1, out=iy)
        return self._id_grid[ix, iy]

    def thresholds_for(self, positions: np.ndarray) -> np.ndarray:
        """The Δ each node at ``positions`` must use (vectorized lookup)."""
        return self._deltas[self.region_ids_for(positions)]

    def region_at(self, x: float, y: float) -> SheddingRegion:
        """The shedding region containing a point."""
        idx = int(self.region_ids_for(np.array([[x, y]]))[0])
        return self.regions[idx]

    def max_threshold_spread(self) -> float:
        """``max Δᵢ − min Δᵢ`` — must not exceed the fairness threshold."""
        return float(self._deltas.max() - self._deltas.min())

    def predicted_inaccuracy(self) -> float:
        """The objective value ``Σ mᵢ·Δᵢ`` of this plan."""
        return float(sum(r.m * r.delta for r in self.regions))

    # ------------------------------------------------------------------
    # Deltas
    # ------------------------------------------------------------------

    def same_geometry(self, other: "SheddingPlan") -> bool:
        """True when both plans tile the space with identical rectangles.

        Same-geometry plans share a rasterization, so a per-region delta
        can carry one into the other without touching the id grid.
        Plans that share one id grid object (:meth:`with_content`,
        :meth:`apply_delta`) answer without walking the rectangles.
        """
        if self.bounds != other.bounds or len(self.regions) != len(other.regions):
            return False
        if self._id_grid is other._id_grid:
            return True
        return self._resolution == other._resolution and all(
            a.rect == b.rect for a, b in zip(self.regions, other.regions)
        )

    def diff(self, new: "SheddingPlan") -> PlanDelta | None:
        """The delta carrying this plan to ``new``, or ``None``.

        ``None`` means the geometry changed and receivers need the full
        plan.  A delta with empty ``changes`` and ``stat_changes`` means
        the content is identical (only the epoch stamp moves).  Regions
        whose throttler moved land in ``changes``; regions whose
        statistics drifted under a steady throttler land in
        ``stat_changes`` and cost no broadcast airtime.
        """
        if not self.same_geometry(new):
            return None
        changes: list[tuple[int, float, float, float, float]] = []
        stat_changes: list[tuple[int, float, float, float]] = []
        for index, (a, b) in enumerate(zip(self.regions, new.regions)):
            if a.delta != b.delta:
                changes.append((index, b.delta, b.n, b.m, b.s))
            elif (a.n, a.m, a.s) != (b.n, b.m, b.s):
                stat_changes.append((index, b.n, b.m, b.s))
        return PlanDelta(
            base_epoch=self.epoch,
            epoch=new.epoch,
            num_regions=len(new.regions),
            changes=tuple(changes),
            stat_changes=tuple(stat_changes),
        )

    def apply_delta(self, delta: PlanDelta) -> "SheddingPlan":
        """The plan that ``delta`` carries this plan to.

        Raises :class:`PlanEpochMismatch` when the delta was not built
        against this plan's epoch — the receiver must resync with a full
        plan.  The rasterized id grid is shared with this plan (regions
        keep their rectangles), making application O(changes).
        """
        if delta.base_epoch != self.epoch:
            raise PlanEpochMismatch(
                f"delta applies to epoch {delta.base_epoch}, plan is at "
                f"epoch {self.epoch}"
            )
        if delta.num_regions != len(self.regions):
            raise PlanEpochMismatch(
                f"delta describes {delta.num_regions} regions, plan has "
                f"{len(self.regions)}"
            )
        regions = list(self.regions)
        for index, d, n, m, s in delta.changes:
            if not (0 <= index < len(regions)):
                raise ValueError(f"delta region index {index} out of range")
            regions[index] = SheddingRegion(
                rect=regions[index].rect, delta=d, n=n, m=m, s=s
            )
        for index, n, m, s in delta.stat_changes:
            if not (0 <= index < len(regions)):
                raise ValueError(f"delta region index {index} out of range")
            regions[index] = SheddingRegion(
                rect=regions[index].rect, delta=regions[index].delta, n=n, m=m, s=s
            )
        return SheddingPlan(
            bounds=self.bounds,
            regions=regions,
            id_grid=self._id_grid,
            epoch=delta.epoch,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-serializable description of the plan."""
        return {
            "format": "repro.plan",
            "version": 1,
            "epoch": self.epoch,
            "bounds": [self.bounds.x1, self.bounds.y1, self.bounds.x2, self.bounds.y2],
            "resolution": self._resolution,
            "regions": [
                {
                    "rect": [r.rect.x1, r.rect.y1, r.rect.x2, r.rect.y2],
                    "delta": r.delta,
                    "n": r.n,
                    "m": r.m,
                    "s": r.s,
                }
                for r in self.regions
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SheddingPlan":
        """Rebuild a plan written by :meth:`to_dict` (raster recomputed)."""
        if doc.get("format") != "repro.plan":
            raise ValueError("not a repro shedding-plan document")
        if doc.get("version") != 1:
            raise ValueError(f"unsupported plan version {doc.get('version')!r}")
        bounds = Rect(*doc["bounds"])
        regions = [
            RegionStats(
                rect=Rect(*record["rect"]),
                n=record["n"],
                m=record["m"],
                s=record["s"],
            )
            for record in doc["regions"]
        ]
        thresholds = np.array([record["delta"] for record in doc["regions"]])
        return cls.from_regions(
            bounds,
            regions,
            thresholds,
            doc["resolution"],
            epoch=int(doc.get("epoch", 0)),
        )

    def save(self, path: str | Path) -> None:
        """Write the plan to a JSON file."""
        import json

        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "SheddingPlan":
        """Read a plan written by :meth:`save`."""
        import json

        return cls.from_dict(json.loads(Path(path).read_text()))
