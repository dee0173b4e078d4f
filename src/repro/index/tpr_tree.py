"""A TPR-tree: time-parameterized R-tree over moving objects.

The paper positions LIRA as complementary to update-efficient moving-
object indexes and names the TPR-tree (Šaltenis et al., SIGMOD 2000) as
the canonical choice.  This is a from-scratch implementation of that
substrate: objects are linear motion models ``(position, velocity,
reference time)`` — exactly what dead-reckoning reports carry — and the
tree answers *timestamp range queries* ("who is inside rect R at time
t?") without storing per-tick positions.

Structure follows the original design at moderate fidelity:

* every entry carries a **time-parameterized bounding rectangle** (TPBR):
  spatial bounds at a reference time plus min/max velocity bounds per
  axis; the rectangle at time ``t`` is the reference rectangle expanded
  by the velocity extremes times the elapsed time (never shrunk —
  conservative, as in the paper);
* insertion descends by least *integrated area enlargement* over the
  tree's horizon ``H``, the TPR-tree's core cost metric;
* node splits partition entries along the axis whose sweep minimizes
  integrated area (an R*-inspired, time-integrated split);
* deletion is by object id with under-full nodes condensed and their
  entries reinserted.

Supports the operations the CQ server needs: ``insert``, ``update``
(delete + reinsert with fresh motion parameters — a position update),
``delete``, and ``query(rect, t)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geo import Rect


@dataclass
class MovingObject:
    """One indexed moving object: a linear motion model with an id."""

    object_id: int
    x: float
    y: float
    vx: float
    vy: float
    time: float

    def position_at(self, t: float) -> tuple[float, float]:
        dt = t - self.time
        return (self.x + self.vx * dt, self.y + self.vy * dt)


@dataclass(slots=True)
class TPBR:
    """Time-parameterized bounding rectangle.

    Spatial bounds (``x1..y2``) are valid at ``time``; velocity bounds
    give the fastest shrink/growth of each edge.  ``rect_at(t)`` is only
    valid for ``t >= time`` (TPR-trees never reason about the past).
    """

    x1: float
    y1: float
    x2: float
    y2: float
    vx1: float
    vy1: float
    vx2: float
    vy2: float
    time: float

    @classmethod
    def of_object(cls, obj: MovingObject) -> "TPBR":
        return cls(
            x1=obj.x, y1=obj.y, x2=obj.x, y2=obj.y,
            vx1=obj.vx, vy1=obj.vy, vx2=obj.vx, vy2=obj.vy,
            time=obj.time,
        )

    def rect_at(self, t: float) -> Rect:
        """The (conservative) bounding rectangle at time ``t >= time``."""
        dt = max(0.0, t - self.time)
        return Rect(
            self.x1 + self.vx1 * dt,
            self.y1 + self.vy1 * dt,
            max(self.x1 + self.vx1 * dt, self.x2 + self.vx2 * dt),
            max(self.y1 + self.vy1 * dt, self.y2 + self.vy2 * dt),
        )

    def integrated_area(self, t0: float, horizon: float) -> float:
        """Exact ``∫ area(t) dt`` over ``[t0, t0 + horizon]``.

        Width and height are linear in t, so the area is quadratic and
        the integral has a closed form.  (Assumes non-shrinking extents,
        which holds for every TPBR this tree builds: velocity bounds are
        mins/maxes of member velocities.)
        """
        dt0 = max(0.0, t0 - self.time)
        w0 = (self.x2 + self.vx2 * dt0) - (self.x1 + self.vx1 * dt0)
        h0 = (self.y2 + self.vy2 * dt0) - (self.y1 + self.vy1 * dt0)
        a = self.vx2 - self.vx1  # width growth rate
        b = self.vy2 - self.vy1  # height growth rate
        if horizon <= 0:
            return max(w0, 0.0) * max(h0, 0.0)
        H = horizon
        return w0 * h0 * H + (w0 * b + h0 * a) * H * H / 2.0 + a * b * H**3 / 3.0

    def extended(self, other: "TPBR") -> "TPBR":
        """The minimal TPBR covering both (at the later reference time)."""
        t = max(self.time, other.time)
        dta = max(0.0, t - self.time)
        dtb = max(0.0, t - other.time)
        return TPBR(
            x1=min(self.x1 + self.vx1 * dta, other.x1 + other.vx1 * dtb),
            y1=min(self.y1 + self.vy1 * dta, other.y1 + other.vy1 * dtb),
            x2=max(self.x2 + self.vx2 * dta, other.x2 + other.vx2 * dtb),
            y2=max(self.y2 + self.vy2 * dta, other.y2 + other.vy2 * dtb),
            vx1=min(self.vx1, other.vx1),
            vy1=min(self.vy1, other.vy1),
            vx2=max(self.vx2, other.vx2),
            vy2=max(self.vy2, other.vy2),
            time=t,
        )

    def intersects_at(self, rect: Rect, t: float) -> bool:
        dt = max(0.0, t - self.time)
        x1 = self.x1 + self.vx1 * dt
        y1 = self.y1 + self.vy1 * dt
        x2 = self.x2 + self.vx2 * dt
        y2 = self.y2 + self.vy2 * dt
        return x1 <= rect.x2 and rect.x1 <= x2 and y1 <= rect.y2 and rect.y1 <= y2


@dataclass(slots=True)
class _Entry:
    """A node slot: either a moving object (leaf) or a child node."""

    tpbr: TPBR
    obj: MovingObject | None = None
    child: "_Node | None" = None


@dataclass
class _Node:
    is_leaf: bool
    entries: list[_Entry] = field(default_factory=list)
    parent: "_Node | None" = None

    def recompute_tpbr(self) -> TPBR:
        tpbr = self.entries[0].tpbr
        for entry in self.entries[1:]:
            tpbr = tpbr.extended(entry.tpbr)
        return tpbr


class TPRTree:
    """Time-parameterized R-tree over linearly moving objects.

    Args:
        horizon: the time window (seconds) insertion optimizes over —
            the TPR-tree's ``H`` parameter.  Should be on the order of
            the expected time between updates.
        max_entries: node fan-out (min fill is half of it).
    """

    def __init__(self, horizon: float = 60.0, max_entries: int = 8) -> None:
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4")
        self.horizon = horizon
        self.max_entries = max_entries
        self.min_entries = max_entries // 2
        self._root = _Node(is_leaf=True)
        self._objects: dict[int, MovingObject] = {}
        self._leaf_of: dict[int, _Node] = {}

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._objects

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------

    def insert(self, obj: MovingObject) -> None:
        """Index a new moving object; its id must not be present."""
        if obj.object_id in self._objects:
            raise KeyError(f"object {obj.object_id} already indexed; use update()")
        self._objects[obj.object_id] = obj
        self._insert_entry(_Entry(tpbr=TPBR.of_object(obj), obj=obj))

    def update(self, obj: MovingObject) -> None:
        """Apply a position update: replace the object's motion model.

        This is the operation a dead-reckoning report triggers — the
        dominant workload LIRA reduces.
        """
        if obj.object_id in self._objects:
            self.delete(obj.object_id)
        self._objects[obj.object_id] = obj
        self._insert_entry(_Entry(tpbr=TPBR.of_object(obj), obj=obj))

    def delete(self, object_id: int) -> MovingObject:
        """Remove an object by id; raises ``KeyError`` if absent."""
        obj = self._objects.pop(object_id)
        leaf = self._leaf_of.pop(object_id, None)
        if leaf is None or all(
            e.obj is None or e.obj.object_id != object_id for e in leaf.entries
        ):  # pragma: no cover - fallback if the leaf map ever goes stale
            leaf = self._find_leaf(self._root, object_id)
        if leaf is None:  # pragma: no cover - structural invariant
            raise RuntimeError(f"object {object_id} tracked but not in tree")
        leaf.entries = [e for e in leaf.entries if e.obj.object_id != object_id]
        self._condense(leaf)
        return obj

    def query(self, rect: Rect, t: float) -> list[int]:
        """Ids of objects whose (extrapolated) position at ``t`` is in ``rect``."""
        result: list[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            for entry in node.entries:
                if not entry.tpbr.intersects_at(rect, t):
                    continue
                if node.is_leaf:
                    x, y = entry.obj.position_at(t)
                    if rect.contains_xy(x, y):
                        result.append(entry.obj.object_id)
                else:
                    stack.append(entry.child)
        return result

    def height(self) -> int:
        """Tree height (1 = a single leaf root)."""
        height, node = 1, self._root
        while not node.is_leaf:
            height += 1
            node = node.entries[0].child
        return height

    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on damage.

        Used by the property tests: every object reachable exactly once,
        fan-out within bounds (root excepted), parent pointers coherent.
        """
        seen: list[int] = []

        def walk(node: _Node, is_root: bool) -> None:
            if not is_root:
                assert len(node.entries) >= 1
            assert len(node.entries) <= self.max_entries
            for entry in node.entries:
                if node.is_leaf:
                    assert entry.obj is not None
                    seen.append(entry.obj.object_id)
                else:
                    assert entry.child is not None
                    assert entry.child.parent is node
                    walk(entry.child, False)

        walk(self._root, True)
        assert sorted(seen) == sorted(self._objects), "tree/object-table mismatch"

    # ------------------------------------------------------------------
    # Insertion machinery
    # ------------------------------------------------------------------

    def _insert_entry(self, entry: _Entry, at_leaf: bool = True) -> None:
        node = self._choose_node(entry.tpbr, at_leaf)
        node.entries.append(entry)
        if entry.child is not None:
            entry.child.parent = node
        if entry.obj is not None:
            self._leaf_of[entry.obj.object_id] = node
        if len(node.entries) > self.max_entries:
            self._split(node)

    def _choose_node(self, tpbr: TPBR, at_leaf: bool) -> _Node:
        node = self._root
        while not node.is_leaf:
            if not at_leaf and _subtree_height(node) == 2:
                # Re-inserting an internal entry one level above leaves.
                return node
            node = self._best_child(node, tpbr)
        return node

    def _best_child(self, node: _Node, tpbr: TPBR) -> _Node:
        t0 = tpbr.time
        best, best_cost = None, None
        for entry in node.entries:
            before = entry.tpbr.integrated_area(t0, self.horizon)
            after = entry.tpbr.extended(tpbr).integrated_area(t0, self.horizon)
            enlargement = after - before
            cost = (enlargement, after)
            if best_cost is None or cost < best_cost:
                best, best_cost = entry, cost
        # Update the chosen entry's TPBR to cover the new data.
        best.tpbr = best.tpbr.extended(tpbr)
        return best.child

    def _split(self, node: _Node) -> None:
        t0 = max(e.tpbr.time for e in node.entries)
        best_axis_entries, best_cost = None, None
        for key in (
            lambda e: e.tpbr.rect_at(t0).x1,
            lambda e: e.tpbr.rect_at(t0).y1,
        ):
            ordered = sorted(node.entries, key=key)
            for split_at in range(self.min_entries, len(ordered) - self.min_entries + 1):
                left, right = ordered[:split_at], ordered[split_at:]
                cost = _group_cost(left, t0, self.horizon) + _group_cost(
                    right, t0, self.horizon
                )
                if best_cost is None or cost < best_cost:
                    best_axis_entries, best_cost = (left, right), cost
        left_entries, right_entries = best_axis_entries

        sibling = _Node(is_leaf=node.is_leaf, entries=list(right_entries))
        node.entries = list(left_entries)
        for e in sibling.entries:
            if e.child is not None:
                e.child.parent = sibling
            if e.obj is not None:
                self._leaf_of[e.obj.object_id] = sibling

        if node.parent is None:
            new_root = _Node(is_leaf=False)
            new_root.entries = [
                _Entry(tpbr=node.recompute_tpbr(), child=node),
                _Entry(tpbr=sibling.recompute_tpbr(), child=sibling),
            ]
            node.parent = new_root
            sibling.parent = new_root
            self._root = new_root
            return

        parent = node.parent
        for entry in parent.entries:
            if entry.child is node:
                entry.tpbr = node.recompute_tpbr()
                break
        parent.entries.append(_Entry(tpbr=sibling.recompute_tpbr(), child=sibling))
        sibling.parent = parent
        if len(parent.entries) > self.max_entries:
            self._split(parent)

    # ------------------------------------------------------------------
    # Deletion machinery
    # ------------------------------------------------------------------

    def _find_leaf(self, node: _Node, object_id: int) -> _Node | None:
        if node.is_leaf:
            for entry in node.entries:
                if entry.obj.object_id == object_id:
                    return node
            return None
        for entry in node.entries:
            found = self._find_leaf(entry.child, object_id)
            if found is not None:
                return found
        return None

    def _condense(self, node: _Node) -> None:
        orphans: list[_Entry] = []
        while node.parent is not None:
            parent = node.parent
            if len(node.entries) < self.min_entries:
                parent.entries = [e for e in parent.entries if e.child is not node]
                orphans.extend(node.entries)
            else:
                for entry in parent.entries:
                    if entry.child is node:
                        entry.tpbr = node.recompute_tpbr()
            node = parent
        # Shrink a root that lost all but one child.
        while not self._root.is_leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0].child
            self._root.parent = None
        if not self._root.entries and not self._root.is_leaf:
            self._root = _Node(is_leaf=True)
        for entry in orphans:
            if entry.obj is not None:
                self._insert_entry(entry)
            else:
                for sub in _collect_leaf_entries(entry.child):
                    self._insert_entry(sub)


def _group_cost(entries: list[_Entry], t0: float, horizon: float) -> float:
    tpbr = entries[0].tpbr
    for entry in entries[1:]:
        tpbr = tpbr.extended(entry.tpbr)
    return tpbr.integrated_area(t0, horizon)


def _subtree_height(node: _Node) -> int:
    height = 1
    while not node.is_leaf:
        height += 1
        node = node.entries[0].child
    return height


def _collect_leaf_entries(node: _Node) -> list[_Entry]:
    if node.is_leaf:
        return list(node.entries)
    out: list[_Entry] = []
    for entry in node.entries:
        out.extend(_collect_leaf_entries(entry.child))
    return out
