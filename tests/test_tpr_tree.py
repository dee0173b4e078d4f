"""Unit and property tests for the TPR-tree moving-object index."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import Rect
from repro.index.tpr_tree import MovingObject, TPBR, TPRTree


def obj(object_id, x, y, vx=0.0, vy=0.0, time=0.0) -> MovingObject:
    return MovingObject(object_id, x, y, vx, vy, time)


def brute_force(objects, rect, t) -> set[int]:
    hits = set()
    for o in objects.values():
        x, y = o.position_at(t)
        if rect.contains_xy(x, y):
            hits.add(o.object_id)
    return hits


class TestTPBR:
    def test_of_object_is_degenerate_point(self):
        tpbr = TPBR.of_object(obj(1, 5.0, 6.0, 1.0, -1.0, time=2.0))
        r = tpbr.rect_at(2.0)
        assert (r.x1, r.y1, r.x2, r.y2) == (5.0, 6.0, 5.0, 6.0)

    def test_rect_moves_with_velocity(self):
        tpbr = TPBR.of_object(obj(1, 0.0, 0.0, 2.0, -1.0))
        r = tpbr.rect_at(5.0)
        assert (r.x1, r.y1) == (10.0, -5.0)

    def test_extended_covers_both_now_and_later(self):
        a = TPBR.of_object(obj(1, 0.0, 0.0, 1.0, 0.0))
        b = TPBR.of_object(obj(2, 10.0, 0.0, -1.0, 0.0))
        merged = a.extended(b)
        for t in (0.0, 3.0, 10.0):
            ra, rb, rm = a.rect_at(t), b.rect_at(t), merged.rect_at(t)
            assert rm.x1 <= min(ra.x1, rb.x1) + 1e-9
            assert rm.x2 >= max(ra.x2, rb.x2) - 1e-9

    def test_integrated_area_grows_with_velocity_spread(self):
        slow = TPBR(0, 0, 1, 1, -0.1, -0.1, 0.1, 0.1, time=0.0)
        fast = TPBR(0, 0, 1, 1, -5.0, -5.0, 5.0, 5.0, time=0.0)
        assert fast.integrated_area(0.0, 10.0) > slow.integrated_area(0.0, 10.0)

    def test_zero_horizon_is_instant_area(self):
        tpbr = TPBR(0, 0, 2, 3, 0, 0, 0, 0, time=0.0)
        assert tpbr.integrated_area(0.0, 0.0) == pytest.approx(6.0)


class TestBasicOperations:
    def test_insert_and_query_static(self):
        tree = TPRTree()
        tree.insert(obj(1, 10.0, 10.0))
        tree.insert(obj(2, 90.0, 90.0))
        assert tree.query(Rect(0, 0, 50, 50), t=0.0) == [1]
        assert len(tree) == 2

    def test_query_accounts_for_motion(self):
        tree = TPRTree()
        tree.insert(obj(1, 0.0, 0.0, vx=10.0))
        window = Rect(45.0, -5.0, 55.0, 5.0)
        assert tree.query(window, t=0.0) == []
        assert tree.query(window, t=5.0) == [1]
        assert tree.query(window, t=10.0) == []

    def test_duplicate_insert_rejected(self):
        tree = TPRTree()
        tree.insert(obj(1, 0.0, 0.0))
        with pytest.raises(KeyError):
            tree.insert(obj(1, 5.0, 5.0))

    def test_update_replaces_motion(self):
        tree = TPRTree()
        tree.insert(obj(1, 0.0, 0.0, vx=10.0))
        tree.update(obj(1, 0.0, 0.0, vx=-10.0, time=0.0))
        assert tree.query(Rect(-55.0, -5.0, -45.0, 5.0), t=5.0) == [1]
        assert len(tree) == 1

    def test_update_unseen_id_inserts(self):
        tree = TPRTree()
        tree.update(obj(9, 1.0, 1.0))
        assert 9 in tree

    def test_delete(self):
        tree = TPRTree()
        tree.insert(obj(1, 0.0, 0.0))
        tree.insert(obj(2, 1.0, 1.0))
        removed = tree.delete(1)
        assert removed.object_id == 1
        assert 1 not in tree
        assert tree.query(Rect(-1, -1, 2, 2), 0.0) == [2]
        with pytest.raises(KeyError):
            tree.delete(1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TPRTree(horizon=-1.0)
        with pytest.raises(ValueError):
            TPRTree(max_entries=2)


class TestBulkBehaviour:
    def test_many_inserts_match_brute_force(self, rng):
        tree = TPRTree(horizon=30.0, max_entries=6)
        objects = {}
        for k in range(200):
            o = obj(
                k,
                rng.uniform(0, 1000),
                rng.uniform(0, 1000),
                rng.uniform(-10, 10),
                rng.uniform(-10, 10),
            )
            objects[k] = o
            tree.insert(o)
        tree.validate()
        assert tree.height() > 1
        for t in (0.0, 10.0, 30.0):
            rect = Rect(200.0, 200.0, 700.0, 650.0)
            assert set(tree.query(rect, t)) == brute_force(objects, rect, t)

    def test_interleaved_updates_and_deletes(self, rng):
        tree = TPRTree(max_entries=6)
        objects = {}
        for k in range(120):
            o = obj(k, rng.uniform(0, 500), rng.uniform(0, 500),
                    rng.uniform(-5, 5), rng.uniform(-5, 5))
            objects[k] = o
            tree.insert(o)
        # Update a third, delete a third.
        for k in range(0, 120, 3):
            o = obj(k, rng.uniform(0, 500), rng.uniform(0, 500),
                    rng.uniform(-5, 5), rng.uniform(-5, 5), time=10.0)
            objects[k] = o
            tree.update(o)
        for k in range(1, 120, 3):
            tree.delete(k)
            del objects[k]
        tree.validate()
        rect = Rect(100.0, 100.0, 400.0, 400.0)
        for t in (10.0, 25.0):
            assert set(tree.query(rect, t)) == brute_force(objects, rect, t)

    def test_delete_everything(self, rng):
        tree = TPRTree(max_entries=4)
        for k in range(50):
            tree.insert(obj(k, rng.uniform(0, 100), rng.uniform(0, 100)))
        for k in range(50):
            tree.delete(k)
        tree.validate()
        assert len(tree) == 0
        assert tree.query(Rect(0, 0, 100, 100), 0.0) == []

    def test_dead_reckoning_integration(self, small_trace):
        """Index maintained by dead-reckoning reports answers queries
        against the believed positions of a real trace."""
        from repro.motion import DeadReckoningFleet

        tree = TPRTree(horizon=60.0, max_entries=8)
        fleet = DeadReckoningFleet(small_trace.num_nodes)
        fleet.set_thresholds(20.0)
        for tick in range(small_trace.num_ticks):
            t = tick * small_trace.dt
            senders = fleet.observe(
                t, small_trace.positions[tick], small_trace.velocities[tick]
            )
            for node_id in senders:
                tree.update(
                    obj(
                        int(node_id),
                        float(small_trace.positions[tick][node_id, 0]),
                        float(small_trace.positions[tick][node_id, 1]),
                        float(small_trace.velocities[tick][node_id, 0]),
                        float(small_trace.velocities[tick][node_id, 1]),
                        time=t,
                    )
                )
        tree.validate()
        assert len(tree) == small_trace.num_nodes
        # The tree's answers must match brute force over the stored models.
        t_final = (small_trace.num_ticks - 1) * small_trace.dt
        b = small_trace.bounds
        rect = Rect(b.x1, b.y1, b.x1 + b.width / 2, b.y1 + b.height / 2)
        sent_pos, sent_vel, sent_time = fleet.node_models()
        expected = set()
        for k in range(small_trace.num_nodes):
            x = sent_pos[k, 0] + sent_vel[k, 0] * (t_final - sent_time[k])
            y = sent_pos[k, 1] + sent_vel[k, 1] * (t_final - sent_time[k])
            if rect.contains_xy(x, y):
                expected.add(k)
        assert set(tree.query(rect, t_final)) == expected


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.floats(min_value=0, max_value=100),
                st.floats(min_value=-5, max_value=5),
                st.floats(min_value=-5, max_value=5),
            ),
            min_size=1,
            max_size=60,
        ),
        st.floats(min_value=0, max_value=20),
    )
    def test_query_always_matches_brute_force(self, rows, t):
        tree = TPRTree(horizon=10.0, max_entries=4)
        objects = {}
        for k, (x, y, vx, vy) in enumerate(rows):
            o = obj(k, x, y, vx, vy)
            objects[k] = o
            tree.insert(o)
        tree.validate()
        rect = Rect(25.0, 25.0, 75.0, 75.0)
        assert set(tree.query(rect, t)) == brute_force(objects, rect, t)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_random_operation_sequences_keep_invariants(self, data):
        tree = TPRTree(max_entries=4)
        objects = {}
        next_id = 0
        for _ in range(40):
            op = data.draw(st.sampled_from(["insert", "update", "delete"]))
            if op == "insert" or not objects:
                o = obj(
                    next_id,
                    data.draw(st.floats(min_value=0, max_value=100)),
                    data.draw(st.floats(min_value=0, max_value=100)),
                )
                objects[next_id] = o
                tree.insert(o)
                next_id += 1
            elif op == "update":
                k = data.draw(st.sampled_from(sorted(objects)))
                o = obj(k, data.draw(st.floats(min_value=0, max_value=100)), 50.0)
                objects[k] = o
                tree.update(o)
            else:
                k = data.draw(st.sampled_from(sorted(objects)))
                tree.delete(k)
                del objects[k]
        tree.validate()
        rect = Rect(0.0, 0.0, 100.0, 100.0)
        assert set(tree.query(rect, 0.0)) == brute_force(objects, rect, 0.0)
