"""Cross-round state for the incremental adapt pipeline.

LIRA's pitch is *lightweight* adaptivity: steady-state adaptation cost
should track the drift in the statistics, not the domain size.  This
module holds the state that survives between adaptation rounds and
makes that possible while keeping the results bit-identical to a
round that starts from nothing (a fresh session, the from-scratch
round):

* :class:`IncrementalGridReduceCache` — per-node CALCERRGAIN gains
  memoized by quad-tree coordinate and *validated by value* against the
  node's current aggregate statistics (the gain is a pure function of
  the node's ``(n, m, s)``, its four children's statistics, ``z`` and
  the static reduction inputs, so an exact float match guarantees the
  memoized gain is the one a fresh solve would produce).  The cache
  also records the previous run's *trajectory* — the heap push
  sequence — a purely structural prefetch hint: the next run scores
  that whole node set in one batched kernel call instead of one call
  per expansion, whatever happened to the statistics or to ``z`` in
  between.

* :class:`IncrementalAdaptSession` — the load shedder's between-round
  state: the persistent :class:`~repro.core.quadtree.RegionHierarchy`
  (re-aggregated from each round's grid, its rectangles kept), a
  single-entry GREEDYINCREMENT memo, and the last plan for identity
  reuse + plan epoch stamping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.counters import Counters

if TYPE_CHECKING:
    from repro.core.greedy import GreedyResult
    from repro.core.plan import SheddingPlan
    from repro.core.quadtree import RegionHierarchy

# A node's coordinate in the quad-tree: (level, i, j).
NodeCoord = tuple[int, int, int]

# Number of floats in a node's gain key: its own (n, m, s) plus the
# same triple for each of its four children.
KEY_WIDTH = 15

# Deepest level granted array-backed memo storage, by side cell count.
# A level with side S holds S² nodes; 256² keys at KEY_WIDTH floats is
# ~7.9 MB.  Deeper levels (α ≥ 512 only) are simply not memoized —
# their gains recompute every round, which dirty tracking already makes
# rare — keeping cache memory bounded regardless of α.
_MAX_MEMO_SIDE = 256


# Fewest knot-path columns a truncated GREEDYINCREMENT solve builds.
_MIN_HORIZON = 8


@dataclass
class GreedyHorizon:
    """Budget-horizon hint and diagnostics of one GREEDYINCREMENT call site.

    ``depth`` is the knot-path depth the last solve's cut window
    consumed.  Like the trajectory it is purely structural: the next
    solve builds ``columns(κ)`` columns per region and accepts the
    result only when it is proved equal to the full-κ solve, so a stale
    hint (another ``z``, other statistics) costs a retry at full κ,
    never a result.
    """

    depth: int = 0
    #: Columns per region of the last accepted solve (diagnostics, as
    #: are the lifetime ``counts``: live entries the sort pipeline
    #: built, query-free entries popped in closed form — κ per such
    #: region — and solves retried at full κ).
    last_columns: int = 0
    counts: Counters = field(
        default_factory=lambda: Counters("table_entries", "head_entries", "horizon_retries")
    )

    def columns(self, kappa: int) -> int:
        """Columns to build per region: hint × 2, floor 8, cap κ."""
        return min(kappa, max(_MIN_HORIZON, 2 * self.depth))


class IncrementalGridReduceCache:
    """Gain memo + trajectory cache consumed by ``grid_reduce``.

    Gains are memoized per quad-tree level in dense arrays — for each
    node a ``KEY_WIDTH``-float *key* (the exact aggregate statistics the
    gain was computed from) alongside the gain itself.  A lookup is a
    hit only when the freshly gathered key compares equal element for
    element — dirty nodes therefore miss by construction and clean nodes
    hit without any separate invalidation bookkeeping.  The reduction
    inputs are fixed per shedder and are not part of the key.

    A ``z`` change voids the gains (they are z-dependent) and keeps the
    ``trajectory``: it only names coordinates to score up front, each of
    which is re-solved through the memo, so a stale or outright wrong
    hint can waste kernel rows but never change a gain.
    """

    def __init__(self) -> None:
        self.z: float | None = None
        #: level -> (keys (S,S,KEY_WIDTH), gains (S,S), valid (S,S)).
        self.levels: dict[
            int, tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}
        #: The last run's heap push sequence (every node whose gain the
        #: pop order read), or ``None`` before the first run.
        self.trajectory: list[NodeCoord] | None = None
        # Horizon hints of the two GREEDYINCREMENT call sites: the gain
        # kernel's rows and the shedder's final throttler solve.
        self.gain_horizon = GreedyHorizon()
        self.greedy_horizon = GreedyHorizon()
        # Diagnostics (not part of any contract), accumulated across
        # rounds: memo hits/misses, gain-kernel calls that solved at
        # least one row, the GREEDYINCREMENT rows they solved, and the
        # two call sites' horizon counts.
        self.counts = Counters(
            "memo_hits", "memo_misses", "gain_kernel_calls", "gain_rows_solved",
            gain=self.gain_horizon.counts, greedy=self.greedy_horizon.counts,
        )
        self._round_mark = self.counts.snapshot()

    @property
    def hits(self) -> int:
        return self.counts.memo_hits

    @property
    def misses(self) -> int:
        return self.counts.memo_misses

    def level_store(
        self, level: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The (keys, gains, valid) arrays of one level, or ``None``.

        ``None`` means the level is too deep to memoize (memory bound);
        callers treat every node there as a miss.
        """
        store = self.levels.get(level)
        if store is not None:
            return store
        side = 1 << level
        if side > _MAX_MEMO_SIDE:
            return None
        store = (
            np.zeros((side, side, KEY_WIDTH), dtype=np.float64),
            np.zeros((side, side), dtype=np.float64),
            np.zeros((side, side), dtype=bool),
        )
        self.levels[level] = store
        return store

    def begin_round(self, z: float) -> None:
        """Start one ``grid_reduce`` call at throttle fraction ``z``.

        Voids the memoized gains if ``z`` changed (the trajectory
        survives, see the class docstring) and marks where this round's
        share of the diagnostic counters starts.
        """
        self._round_mark = self.counts.snapshot()
        if self.z is not None and self.z == z:
            return
        self.z = z
        for _, _, valid in self.levels.values():
            valid[:] = False

    def counters(self) -> dict[str, int]:
        """The diagnostics by name: lifetime, and the last round's share.

        ``gain_*`` describe the gain kernel's rows, ``greedy_*`` the
        final throttler solve: ``*_table_entries`` the live entries the
        sort pipeline built (a row whose budget is already met builds
        none, so a z = 1 round reads 0), ``*_head_entries`` the
        query-free regions' entries popped in closed form (κ per such
        region), ``*_horizon_retries`` the rows the horizon failed to
        prove (each retried at full κ), and ``greedy_horizon`` the
        columns per region of the last accepted solve (a gauge).
        """
        out = self.counts.snapshot()
        out.update({"last_round_" + k: v for k, v in self.counts.since(self._round_mark).items()})
        out["greedy_horizon"] = self.greedy_horizon.last_columns
        return out


@dataclass
class IncrementalAdaptSession:
    """A ``LiraLoadShedder``'s adapt state: kept between rounds when
    the shedder is incremental, fresh every round otherwise."""

    hierarchy: "RegionHierarchy | None" = None
    gridreduce: IncrementalGridReduceCache = field(
        default_factory=IncrementalGridReduceCache
    )
    # Single-entry GREEDYINCREMENT memo: the final throttler solve is
    # a pure function of (z, region statistics), which repeat exactly
    # whenever the drift did not touch the partitioning.
    greedy_key: tuple | None = None
    greedy_result: "GreedyResult | None" = None
    # Last emitted plan (for identity reuse and epoch stamping) plus
    # the (geometry, statistics, thresholds) content it was built from;
    # bounds + node coordinates stand for the rectangles.
    plan: "SheddingPlan | None" = None
    plan_key: tuple | None = None
    epoch: int = 0
    # Diagnostics: how the last round resolved its plan.
    last_plan_reused: bool = False
    last_geometry_reused: bool = False
