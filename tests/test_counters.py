"""Tests for the one counter shape, :class:`repro.counters.Counters`."""

import pytest

from repro.counters import Counters


def test_counts_bump_snapshot_and_difference():
    part = Counters("table_entries")
    counts = Counters("hits", "misses", gain=part)
    counts.hits += 3
    part.table_entries += 2
    mark = counts.snapshot()
    assert mark == {"hits": 3, "misses": 0, "gain_table_entries": 2}
    counts.misses += 1
    part.table_entries += 5
    assert counts.since(mark) == {"hits": 0, "misses": 1, "gain_table_entries": 5}
    assert counts.snapshot() == {"hits": 3, "misses": 1, "gain_table_entries": 7}
    with pytest.raises(AttributeError):
        counts.hit += 1


def test_equal_by_value():
    a, b = Counters("x", "y"), Counters("x", "y")
    a.x += 1
    assert a != b
    b.x += 1
    assert a == b and a != Counters("x")
