"""Unit tests for the node table."""

import numpy as np
import pytest

from repro.index import NodeTable
from repro.service import decode_frame, encode_frame


class TestNodeTable:
    def test_predict_extrapolates_linearly(self):
        table = NodeTable(2)
        table.ingest(
            0.0,
            np.array([0, 1]),
            np.array([[0.0, 0.0], [10.0, 10.0]]),
            np.array([[1.0, 0.0], [0.0, -1.0]]),
        )
        predicted = table.predict(5.0)
        np.testing.assert_allclose(predicted[0], [5.0, 0.0])
        np.testing.assert_allclose(predicted[1], [10.0, 5.0])

    def test_unknown_nodes_predict_nan(self):
        table = NodeTable(3)
        table.ingest(0.0, np.array([1]), np.array([[1.0, 1.0]]), np.zeros((1, 2)))
        predicted = table.predict(1.0)
        assert np.isnan(predicted[0]).all()
        assert not np.isnan(predicted[1]).any()
        assert np.isnan(predicted[2]).all()

    def test_known_mask(self):
        table = NodeTable(3)
        table.ingest(0.0, np.array([2]), np.array([[0.0, 0.0]]), np.zeros((1, 2)))
        np.testing.assert_array_equal(table.known_mask, [False, False, True])

    def test_newer_report_overwrites(self):
        table = NodeTable(1)
        table.ingest(0.0, np.array([0]), np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        table.ingest(10.0, np.array([0]), np.array([[100.0, 0.0]]), np.zeros((1, 2)))
        np.testing.assert_allclose(table.predict(20.0)[0], [100.0, 0.0])

    def test_empty_ingest_is_noop(self):
        table = NodeTable(2)
        table.ingest(0.0, np.array([], dtype=np.int64), np.empty((0, 2)), np.empty((0, 2)))
        assert table.updates_applied == 0

    def test_update_counter(self):
        table = NodeTable(4)
        table.ingest(0.0, np.array([0, 1]), np.zeros((2, 2)), np.zeros((2, 2)))
        table.ingest(1.0, np.array([1]), np.zeros((1, 2)), np.zeros((1, 2)))
        assert table.updates_applied == 3

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            NodeTable(0)


class TestShardView:
    """A shard's view of the one table: shared models, own counters, and
    an ownership test at apply time that runs before newest-wins."""

    def test_views_share_the_models_and_keep_their_own_counters(self):
        table = NodeTable(3)
        owner = np.array([0, 1, 1])
        a, b = table.shard_view(owner, 0), table.shard_view(owner, 1)
        a.ingest(1.0, np.array([0, 1]), np.ones((2, 2)), np.zeros((2, 2)))
        b.ingest(1.0, np.array([1, 2]), np.full((2, 2), 2.0), np.zeros((2, 2)))
        np.testing.assert_array_equal(a.predict(1.0), [[1.0, 1.0], [2.0, 2.0], [2.0, 2.0]])
        np.testing.assert_array_equal(b.predict(1.0), a.predict(1.0))
        assert (a.updates_applied, a.updates_orphaned) == (1, 1)
        assert (b.updates_applied, b.updates_orphaned) == (2, 0)
        assert table.updates_applied == 0 and table.known_mask.all()

    def test_ownership_is_tested_before_staleness(self):
        table = NodeTable(3)
        owner = np.zeros(3, dtype=np.int64)
        view = table.shard_view(owner, 0)
        view.ingest(5.0, np.arange(3), np.zeros((3, 2)), np.zeros((3, 2)))
        owner[2] = 1  # node 2 hands off: the view reads the flip in place
        # Older than every stored model: 0 and 1 are stale, 2 is an orphan
        # and is counted as one only.
        view.ingest(3.0, np.arange(3), np.ones((3, 2)), np.zeros((3, 2)))
        assert (view.updates_applied, view.updates_discarded, view.updates_orphaned) == (3, 2, 1)
        # Newer, but no longer this shard's to apply.
        view.ingest(6.0, np.array([2]), np.ones((1, 2)), np.zeros((1, 2)))
        assert view.updates_orphaned == 2
        np.testing.assert_array_equal(table.last_update_times, [5.0, 5.0, 5.0])
        other = table.shard_view(owner, 1)
        other.ingest(6.0, np.array([2]), np.ones((1, 2)), np.zeros((1, 2)))
        np.testing.assert_array_equal(view.last_update_times, [5.0, 5.0, 6.0])
        assert (other.updates_applied, other.updates_orphaned) == (1, 0)


def _reference_ingest(state, counts, owner, shard, t, ids, pos):
    """Per report, in order: orphan, stale (a stored time newer than
    ``t``), or applied over whatever is stored — no watermark."""
    for i, p in zip(ids.tolist(), pos.tolist()):
        if owner is not None and owner[i] != shard:
            counts["orphaned"] += 1
        elif i in state and state[i][0] > t:
            counts["discarded"] += 1
        else:
            state[i] = (t, p)
            counts["applied"] += 1


class TestNewestWatermark:
    """The stale check runs only for a batch older than the newest report
    applied, and every shard view reads the one watermark."""

    def test_a_handed_off_node_cannot_go_back_in_time(self):
        table = NodeTable(2)
        owner = np.zeros(2, dtype=np.int64)
        a, b = table.shard_view(owner, 0), table.shard_view(owner, 1)
        a.ingest(5.0, np.array([0]), np.ones((1, 2)), np.zeros((1, 2)))
        owner[0] = 1
        # B has applied nothing itself, yet its delayed t = 4 report for
        # node 0 is older than what A applied: discarded and counted.
        b.ingest(4.0, np.array([0]), np.full((1, 2), 2.0), np.zeros((1, 2)))
        assert (b.updates_applied, b.updates_discarded) == (0, 1)
        np.testing.assert_array_equal(table.predict(5.0)[0], [1.0, 1.0])
        b.ingest(5.0, np.array([0]), np.full((1, 2), 3.0), np.zeros((1, 2)))
        assert (b.updates_applied, b.updates_discarded) == (1, 1)
        np.testing.assert_array_equal(table.predict(5.0)[0], [3.0, 3.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_a_per_report_reference_across_views(self, seed):
        """Times from {−inf, 0…4, +inf, NaN}, owners flipping between
        batches: the views agree with the per-report reference on every
        stored time, position and counter.  NaN is newer and older than
        nothing, so it never raises the watermark and is never stale."""
        rng = np.random.default_rng(seed)
        n = 6
        table = NodeTable(n)
        owner = np.zeros(n, dtype=np.int64)
        views = [table.shard_view(owner, k) for k in range(2)]
        state, counts = {}, {"applied": 0, "discarded": 0, "orphaned": 0}
        choices = [-np.inf, 0.0, 1.0, 2.0, 3.0, 4.0, np.inf, np.nan]
        for _ in range(40):
            owner[:] = rng.integers(0, 2, n)
            t = float(rng.choice(choices))
            ids = rng.integers(0, n, int(rng.integers(1, 5)))
            pos = rng.normal(size=(ids.size, 2))
            k = int(rng.integers(0, 2))
            views[k].ingest(t, ids, pos, np.zeros_like(pos))
            _reference_ingest(state, counts, owner, k, t, ids, pos)
        assert counts == {
            "applied": sum(v.updates_applied for v in views),
            "discarded": sum(v.updates_discarded for v in views),
            "orphaned": sum(v.updates_orphaned for v in views),
        }
        known = sorted(state)
        np.testing.assert_array_equal(np.flatnonzero(table.known_mask), known)
        np.testing.assert_array_equal(
            table.last_update_times[known], [state[i][0] for i in known]
        )
        np.testing.assert_array_equal(table._pos[known], [state[i][1] for i in known])
        assert counts["discarded"] > 0 and counts["orphaned"] > 0


def _per_row_reference(n, batches):
    """Stored ``(positions, velocities)`` after ``batches`` of ``(ids, pos,
    vel)``: one coordinate at a time, in report order."""
    stored = np.zeros((2, n, 2))
    for ids, pos, vel in batches:
        for j, i in enumerate(ids.tolist()):
            for c in range(2):
                stored[0, i, c], stored[1, i, c] = pos[j][c], vel[j][c]
    return stored


def _assert_same_bits(table, stored):
    np.testing.assert_array_equal(table._pos.view(np.uint64), stored[0].view(np.uint64))
    np.testing.assert_array_equal(table._vel.view(np.uint64), stored[1].view(np.uint64))


class TestRowMoves:
    """``ingest`` moves each ``(x, y)`` pair as one 16-byte record: every
    stored bit equals a per-row, per-coordinate reference copy."""

    N = 64

    def _batch(self, seed, size=40, unique=True):
        rng = np.random.default_rng(seed)
        ids = rng.choice(self.N, size, replace=not unique)
        return ids, rng.normal(size=(size, 2)) * 1e3, rng.normal(size=(size, 2))

    @pytest.mark.parametrize("clone", ["deepcopy", "pickle"])
    def test_a_copy_writes_through_its_own_rows(self, clone):
        """The row views alias the model arrays; a copy must rebuild them
        over its own, or what it ingests never reaches its positions."""
        import copy
        import pickle

        table = NodeTable(self.N)
        table.ingest(1.0, *self._batch(1))
        twin = copy.deepcopy(table) if clone == "deepcopy" else pickle.loads(pickle.dumps(table))
        ids, pos, vel = self._batch(2)
        twin.ingest(2.0, ids, pos, vel)
        np.testing.assert_array_equal(twin.predict(2.0)[ids], pos)
        assert np.shares_memory(twin._pos_rows, twin._pos)
        assert not np.shares_memory(twin._pos, table._pos)
        assert table.updates_applied == 40 and twin.updates_applied == 80

    def test_duplicate_ids_last_report_wins(self):
        ids, pos, vel = self._batch(1, size=300, unique=False)
        assert np.unique(ids).size < ids.size
        table = NodeTable(self.N)
        table.ingest(1.0, ids, pos, vel)
        _assert_same_bits(table, _per_row_reference(self.N, [(ids, pos, vel)]))
        assert table.updates_applied == ids.size

    @pytest.mark.parametrize("form", ["float32", "frame", "read-only", "strided", "fortran"])
    def test_input_forms(self, form):
        ids, pos, vel = self._batch(2)
        if form == "float32":
            pos, vel = pos.astype(np.float32), vel.astype(np.float32)
        elif form == "frame":  # what the service applies: views into the frame
            frame = decode_frame(
                encode_frame("ingest", {}, {"node_ids": ids, "positions": pos, "velocities": vel})
            )
            ids, pos, vel = (frame.arrays[k] for k in ("node_ids", "positions", "velocities"))
            assert not pos.flags.writeable
        elif form == "read-only":
            pos = np.frombuffer(pos.tobytes(), dtype=np.float64).reshape(-1, 2)
            vel = np.frombuffer(vel.astype(np.float32).tobytes(), dtype=np.float32).reshape(-1, 2)
        elif form == "strided":
            pos, vel = np.repeat(pos, 3, axis=0)[::3], np.stack((vel[:, 0], vel[:, 1]))
            vel = vel.T
            assert not (pos.flags.c_contiguous or vel.flags.c_contiguous)
        else:
            pos, vel = np.asfortranarray(pos), np.asfortranarray(vel)
        table = NodeTable(self.N)
        table.ingest(1.0, ids, pos, vel)
        _assert_same_bits(table, _per_row_reference(self.N, [(ids, pos, vel)]))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_special_values_keep_their_bits(self, dtype):
        payload_nan = np.array([0x7FF8_0000_0000_0123], dtype=np.uint64).view(np.float64)[0]
        special = np.array(
            [np.nan, payload_nan, -0.0, 0.0, np.inf, -np.inf, 5e-324, -1.5]
        ).astype(dtype)
        pos = np.stack((special, special[::-1]), axis=1)
        vel = np.stack((special[::-1], -special), axis=1)
        ids = np.arange(special.size) * 3
        table = NodeTable(self.N)
        table.ingest(1.0, ids, pos, vel)
        stored = _per_row_reference(self.N, [(ids, pos, vel)])
        _assert_same_bits(table, stored)
        assert table._pos.view(np.uint64)[6, 0] == 0x8000_0000_0000_0000  # -0.0

    def test_shard_views_write_through_the_shared_rows(self):
        rng = np.random.default_rng(4)
        table = NodeTable(self.N)
        owner = np.zeros(self.N, dtype=np.int64)
        views = [table.shard_view(owner, k) for k in range(3)]
        applied = []
        for step in range(12):
            owner[:] = rng.integers(0, 3, self.N)
            ids, pos, vel = self._batch(10 + step, unique=False)
            pos[::5] = np.nan
            vel[1::7] = -0.0
            k = step % 3
            views[k].ingest(float(step), ids, pos, vel)
            mine = owner[ids] == k
            applied.append((ids[mine], pos[mine], vel[mine]))
        _assert_same_bits(table, _per_row_reference(self.N, applied))
        for view in views:
            assert np.shares_memory(view._pos_rows, table._pos)
            assert np.shares_memory(view._vel_rows, table._vel)
        assert sum(v.updates_applied for v in views) == sum(a[0].size for a in applied)
        assert sum(v.updates_orphaned for v in views) > 0
