"""Incremental continual-query evaluation.

The paper's introduction names the two costly components of mobile CQ
processing: position updates and **query re-evaluations**.  This engine
is the re-evaluation side: it maintains every installed range CQ's
result set incrementally — each position update touches only the
queries covering the node's old and new positions (via the
:class:`~repro.cq.query_index.QueryIndex`) — and emits *result deltas*,
the add/remove notifications a CQ system streams to subscribers.

Also supports **moving queries** (ranges anchored to a mobile node,
e.g. "taxis within 1 km of me"), re-anchored whenever their focal
node's believed position changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.counters import Counters
from repro.geo import Point, Rect
from repro.queries import RangeQuery
from repro.cq.query_index import QueryIndex


@dataclass(frozen=True, slots=True)
class MovingRangeQuery:
    """A square range CQ anchored to a mobile node."""

    query_id: int
    anchor_node: int
    side: float

    def materialize(self, anchor_position: Point) -> RangeQuery:
        """The concrete range query at the anchor's current position."""
        return RangeQuery(
            query_id=self.query_id,
            rect=Rect.from_center(anchor_position, self.side),
        )


@dataclass(slots=True)
class ResultDelta:
    """An incremental change to one query's result set."""

    time: float
    query_id: int
    added: tuple[int, ...] = ()
    removed: tuple[int, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.added and not self.removed


class IncrementalCQEngine:
    """Maintains all CQ result sets under a stream of position updates.

    Positions fed to :meth:`apply_update` are the server's *believed*
    positions (reported model positions); the engine is agnostic to
    where they come from.  Static queries are installed up front or via
    :meth:`install`; moving queries via :meth:`install_moving`.
    """

    def __init__(
        self,
        bounds: Rect,
        n_nodes: int,
        queries: list[RangeQuery] | None = None,
        cells_per_side: int = 32,
    ) -> None:
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        self.bounds = bounds
        self.n_nodes = n_nodes
        self.index = QueryIndex(bounds, cells_per_side)
        self._results: dict[int, set[int]] = {}
        self._node_memberships: list[set[int]] = [set() for _ in range(n_nodes)]
        self._positions = np.full((n_nodes, 2), np.nan)
        self._moving: dict[int, MovingRangeQuery] = {}
        self._anchored_by: dict[int, list[int]] = {}
        #: Work counters for cost accounting.
        self.stats = Counters(
            "updates_processed", "deltas_emitted", "memberships_changed", "moving_query_moves"
        )
        for query in queries or []:
            self.install(query)

    # ------------------------------------------------------------------
    # Query installation
    # ------------------------------------------------------------------

    def install(self, query: RangeQuery) -> ResultDelta:
        """Install a static range CQ; returns its initial result delta."""
        self.index.add(query)
        members = self._scan_members(query.rect)
        self._results[query.query_id] = members
        for node_id in members:
            self._node_memberships[node_id].add(query.query_id)
        delta = ResultDelta(
            time=0.0, query_id=query.query_id, added=tuple(sorted(members))
        )
        if not delta.is_empty:
            self.stats.deltas_emitted += 1
        return delta

    def install_moving(self, query: MovingRangeQuery) -> ResultDelta:
        """Install a moving range CQ anchored to a node."""
        if query.anchor_node >= self.n_nodes:
            raise ValueError(f"anchor node {query.anchor_node} out of range")
        self._moving[query.query_id] = query
        self._anchored_by.setdefault(query.anchor_node, []).append(query.query_id)
        anchor = self._positions[query.anchor_node]
        center = (
            Point(float(anchor[0]), float(anchor[1]))
            if not np.isnan(anchor[0])
            else self.bounds.center
        )
        return self.install(query.materialize(center))

    def uninstall(self, query_id: int) -> None:
        """Remove a query (static or moving) and clear its memberships."""
        self.index.remove(query_id)
        for node_id in self._results.pop(query_id, set()):
            self._node_memberships[node_id].discard(query_id)
        moving = self._moving.pop(query_id, None)
        if moving is not None:
            self._anchored_by[moving.anchor_node].remove(query_id)

    # ------------------------------------------------------------------
    # Update processing
    # ------------------------------------------------------------------

    def apply_update(self, t: float, node_id: int, x: float, y: float) -> list[ResultDelta]:
        """Process one position update; returns the result deltas it causes."""
        if not (0 <= node_id < self.n_nodes):
            raise ValueError(f"node {node_id} out of range")
        self.stats.updates_processed += 1
        self._positions[node_id] = (x, y)
        deltas = self._reconcile_node(t, node_id, x, y)
        # Moving queries anchored to this node follow it.
        for query_id in self._anchored_by.get(node_id, ()):
            deltas.extend(self._move_query(t, query_id, Point(x, y)))
        return deltas

    def _reconcile_node(
        self, t: float, node_id: int, x: float, y: float
    ) -> list[ResultDelta]:
        old = self._node_memberships[node_id]
        new = self.index.queries_at(x, y)
        if new == old:
            return []
        deltas = []
        for query_id in old - new:
            self._results[query_id].discard(node_id)
            deltas.append(ResultDelta(time=t, query_id=query_id, removed=(node_id,)))
        for query_id in new - old:
            self._results[query_id].add(node_id)
            deltas.append(ResultDelta(time=t, query_id=query_id, added=(node_id,)))
        self.stats.memberships_changed += len(old ^ new)
        self.stats.deltas_emitted += len(deltas)
        self._node_memberships[node_id] = new
        return deltas

    def _move_query(self, t: float, query_id: int, center: Point) -> list[ResultDelta]:
        moving = self._moving[query_id]
        fresh = moving.materialize(center)
        self.index.replace(fresh)
        self.stats.moving_query_moves += 1
        old_members = self._results[query_id]
        new_members = self._scan_members(fresh.rect)
        if new_members == old_members:
            return []
        added = tuple(sorted(new_members - old_members))
        removed = tuple(sorted(old_members - new_members))
        for node_id in removed:
            self._node_memberships[node_id].discard(query_id)
        for node_id in added:
            self._node_memberships[node_id].add(query_id)
        self._results[query_id] = new_members
        self.stats.memberships_changed += len(added) + len(removed)
        self.stats.deltas_emitted += 1
        return [ResultDelta(time=t, query_id=query_id, added=added, removed=removed)]

    def refresh(self, t: float, believed_positions: np.ndarray) -> list[ResultDelta]:
        """Bulk re-reconciliation from a full believed-position snapshot.

        Used for periodic refresh under dead reckoning, where positions
        drift between reports.  Equivalent to applying one update per
        node with a changed position.
        """
        believed = np.asarray(believed_positions, dtype=np.float64)
        if believed.shape != (self.n_nodes, 2):
            raise ValueError("believed_positions must have shape (n_nodes, 2)")
        # An update touches only its own node's stored position, so the
        # changed set can be found up front in one compare.
        changed = ~np.isnan(believed[:, 0]) & (self._positions != believed).any(axis=1)
        deltas = []
        for node_id in np.flatnonzero(changed):
            x, y = believed[node_id]
            deltas.extend(self.apply_update(t, int(node_id), float(x), float(y)))
        return deltas

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def result(self, query_id: int) -> frozenset[int]:
        """The current result set of one query."""
        return frozenset(self._results[query_id])

    def _scan_members(self, rect: Rect) -> set[int]:
        x, y = self._positions[:, 0], self._positions[:, 1]
        mask = (
            ~np.isnan(x)
            & (x >= rect.x1)
            & (x < rect.x2)
            & (y >= rect.y1)
            & (y < rect.y2)
        )
        return set(map(int, np.flatnonzero(mask)))
