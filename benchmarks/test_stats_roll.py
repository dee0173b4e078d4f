"""Micro-benchmark of the statistics-grid maintenance hot pair.

``ingest_updates`` + ``roll`` is the paper's constant-time incremental
maintenance route; the sampled-statistics experiment
(``run_ext_sampling``) ingests every tick and rolls every adaptation
window.  ``roll`` is double-buffered (the accumulators become the live
arrays, the old live arrays become the next window), so besides timing
it we assert the buffer swap really happens — a regression back to
per-roll allocation would silently double the allocator traffic at
large α.
"""

import numpy as np

from repro.core import StatisticsGrid
from repro.geo import Rect

ALPHA = 128
N_UPDATES = 20_000


def _grid_and_batch():
    rng = np.random.default_rng(11)
    grid = StatisticsGrid(Rect(0.0, 0.0, 10_000.0, 10_000.0), ALPHA)
    xs = rng.uniform(0.0, 10_000.0, N_UPDATES)
    ys = rng.uniform(0.0, 10_000.0, N_UPDATES)
    speeds = rng.uniform(0.0, 30.0, N_UPDATES)
    return grid, xs, ys, speeds


def test_grid_roll_swaps_buffers_in_place():
    grid, xs, ys, speeds = _grid_and_batch()
    grid.ingest_updates(xs, ys, speeds)
    acc_count, acc_speed = grid._acc_count, grid._acc_speed
    live_n, live_s = grid.n, grid.s
    grid.roll(expected_updates_per_node=2.0)
    # The accumulators became the live arrays and vice versa.
    assert grid.n is acc_count and grid.s is acc_speed
    assert grid._acc_count is live_n and grid._acc_speed is live_s
    assert not grid._acc_count.any() and not grid._acc_speed.any()
    assert grid.n.sum() > 0


def test_grid_roll_matches_reference_normalization():
    grid, xs, ys, speeds = _grid_and_batch()
    grid.ingest_updates(xs, ys, speeds)
    count = grid._acc_count.copy()
    speed_sum = grid._acc_speed.copy()
    grid.roll(expected_updates_per_node=2.0)
    np.testing.assert_array_equal(grid.n, count / 2.0)
    expected_s = np.where(count > 0, speed_sum / np.maximum(count, 1), 0.0)
    np.testing.assert_array_equal(grid.s, expected_s)


def test_ingest_and_roll(benchmark):
    grid, xs, ys, speeds = _grid_and_batch()

    def window():
        grid.ingest_updates(xs, ys, speeds)
        grid.roll(expected_updates_per_node=1.0)

    benchmark(window)
    assert grid._acc_updates == 0
