"""Tests for time-varying workloads and ``Simulation`` over a query timeline."""

import dataclasses

import numpy as np
import pytest

from repro.core import LiraConfig, LiraLoadShedder
from repro.geo import Rect
from repro.queries import RangeQuery
from repro.shedding import policy_factory
from repro.sim import QueryTimeline, Simulation, SimulationConfig, TimedQuery
from tests.oracles.dynamics import run_dynamic_simulation


def q(query_id, x1=0.0, y1=0.0, x2=100.0, y2=100.0) -> RangeQuery:
    return RangeQuery(query_id, Rect(x1, y1, x2, y2))


class TestTimedQuery:
    def test_lifetime(self):
        entry = TimedQuery(q(0), t_install=10.0, t_remove=20.0)
        assert not entry.active_at(9.9)
        assert entry.active_at(10.0)
        assert entry.active_at(19.9)
        assert not entry.active_at(20.0)

    def test_forever_by_default(self):
        entry = TimedQuery(q(0), t_install=0.0)
        assert entry.active_at(1e12)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimedQuery(q(0), t_install=5.0, t_remove=5.0)
        # A NaN bound would make the query never active and never a
        # change time; an infinite install time can never be reached.
        for t_install in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                TimedQuery(q(0), t_install=t_install)
        with pytest.raises(ValueError):
            TimedQuery(q(0), t_install=0.0, t_remove=float("nan"))
        assert TimedQuery(q(0), t_install=0.0).t_remove == float("inf")


class TestQueryTimeline:
    def test_active_set_changes_over_time(self):
        timeline = QueryTimeline()
        timeline.add(q(0), 0.0, 100.0)
        timeline.add(q(1), 50.0)
        assert [x.query_id for x in timeline.active_at(10.0)] == [0]
        assert [x.query_id for x in timeline.active_at(60.0)] == [0, 1]
        assert [x.query_id for x in timeline.active_at(150.0)] == [1]

    def test_change_times(self):
        timeline = QueryTimeline()
        timeline.add(q(0), 0.0, 100.0)
        timeline.add(q(1), 50.0)
        assert timeline.change_times() == [0.0, 50.0, 100.0]

    def test_phased_construction(self):
        a = [q(0)]
        b = [q(1), q(2)]
        timeline = QueryTimeline.phased([(0.0, a), (100.0, b)], end_time=200.0)
        assert [x.query_id for x in timeline.active_at(50.0)] == [0]
        assert sorted(x.query_id for x in timeline.active_at(150.0)) == [1, 2]
        assert timeline.active_at(250.0) == []

    def test_phased_requires_order(self):
        with pytest.raises(ValueError):
            QueryTimeline.phased([(100.0, [q(0)]), (0.0, [q(1)])], end_time=200.0)
        with pytest.raises(ValueError):
            QueryTimeline.phased([], end_time=10.0)

    def test_phased_single_phase_spans_whole_window(self):
        timeline = QueryTimeline.phased([(0.0, [q(0), q(1)])], end_time=300.0)
        assert [x.query_id for x in timeline.active_at(0.0)] == [0, 1]
        assert [x.query_id for x in timeline.active_at(299.9)] == [0, 1]
        assert timeline.active_at(300.0) == []
        assert timeline.change_times() == [0.0, 300.0]

    def test_phased_boundary_is_half_open(self):
        # Back-to-back phases: at the boundary instant, the old phase is
        # gone and the new one is active — no overlap, no gap.
        timeline = QueryTimeline.phased(
            [(0.0, [q(0)]), (100.0, [q(1)])], end_time=200.0
        )
        assert [x.query_id for x in timeline.active_at(100.0 - 1e-9)] == [0]
        assert [x.query_id for x in timeline.active_at(100.0)] == [1]

    def test_phased_consecutive_boundaries(self):
        # Three phases whose boundaries are adjacent ticks; each instant
        # sees exactly its own phase.
        timeline = QueryTimeline.phased(
            [(0.0, [q(0)]), (10.0, [q(1)]), (20.0, [q(2)])], end_time=30.0
        )
        for t, expected in ((0.0, 0), (10.0, 1), (20.0, 2)):
            assert [x.query_id for x in timeline.active_at(t)] == [expected]
        assert timeline.change_times() == [0.0, 10.0, 20.0, 30.0]

    def test_phased_duplicate_start_times_rejected(self):
        # A zero-length phase would need t_remove == t_install, which
        # TimedQuery rejects; the error must surface, not crash later.
        with pytest.raises(ValueError):
            QueryTimeline.phased(
                [(0.0, [q(0)]), (0.0, [q(1)])], end_time=100.0
            )

    def test_phased_last_phase_at_end_time_rejected(self):
        with pytest.raises(ValueError):
            QueryTimeline.phased([(100.0, [q(0)])], end_time=100.0)

    def test_query_inactive_exactly_at_t_remove(self):
        timeline = QueryTimeline.phased([(0.0, [q(0)])], end_time=50.0)
        entry = timeline.entries[0]
        assert entry.t_remove == 50.0
        assert entry.active_at(50.0 - 1e-9)
        assert not entry.active_at(50.0)
        assert timeline.active_at(50.0) == []

    def test_phased_empty_phase_creates_gap(self):
        # A phase with no queries is a deliberate quiet period.
        timeline = QueryTimeline.phased(
            [(0.0, [q(0)]), (10.0, []), (20.0, [q(1)])], end_time=30.0
        )
        assert timeline.active_at(15.0) == []
        assert [x.query_id for x in timeline.active_at(25.0)] == [1]


CONFIG = LiraConfig(l=13, alpha=32)


def make_policy(scenario, name="lira"):
    return policy_factory(name)(LiraLoadShedder(CONFIG, scenario.reduction), scenario.reduction)


class TestDynamicSimulation:
    def _timeline(self, scenario):
        half = scenario.trace.duration / 2
        return QueryTimeline.phased(
            [(0.0, scenario.queries[: len(scenario.queries) // 2 or 1]),
             (half, scenario.queries)],
            end_time=scenario.trace.duration,
        )

    def _run(self, scenario, adapt_every):
        return Simulation(
            dataclasses.replace(scenario, queries=self._timeline(scenario)),
            "lira",
            CONFIG,
            SimulationConfig(z=0.5, adapt_every=adapt_every),
        ).run()

    def test_runs_and_records(self, tiny_scenario):
        outcome = self._run(tiny_scenario, adapt_every=10)
        assert outcome.times.shape == (tiny_scenario.trace.num_ticks,)
        assert outcome.adaptations >= 2
        assert outcome.updates_per_tick.sum() > 0
        assert not np.isnan(outcome.window_error())

    def test_one_shot_adapts_once(self, tiny_scenario):
        outcome = self._run(tiny_scenario, adapt_every=tiny_scenario.trace.num_ticks)
        assert outcome.adaptations == 1

    def test_mean_error_windowing(self, tiny_scenario):
        outcome = self._run(tiny_scenario, adapt_every=10)
        duration = tiny_scenario.trace.duration
        whole = outcome.window_error()
        first = outcome.window_error(0.0, duration / 2)
        second = outcome.window_error(duration / 2, duration)
        assert min(first, second) - 1e-12 <= whole <= max(first, second) + 1e-12

    def test_empty_window_is_nan(self, tiny_scenario):
        outcome = self._run(tiny_scenario, adapt_every=10)
        assert np.isnan(outcome.window_error(1e9, 2e9))


class TestLoopParity:
    """``Simulation`` over a timeline ≡ the dynamic loop it replaced, bit for bit."""

    @pytest.mark.parametrize("policy_name", ["lira", "uniform", "random-drop"])
    @pytest.mark.parametrize("one_shot", [False, True], ids=["every-10", "one-shot"])
    def test_matches_the_old_dynamic_loop(self, tiny_scenario, policy_name, one_shot):
        trace, queries = tiny_scenario.trace, tiny_scenario.queries
        # Three phases, the middle one empty, switching between ticks.
        timeline = QueryTimeline.phased(
            [(0.0, queries[::2]), (0.35 * trace.duration, []),
             (0.65 * trace.duration, queries[1::2])],
            end_time=trace.duration,
        )
        expected = run_dynamic_simulation(
            trace, timeline, make_policy(tiny_scenario, policy_name), z=0.5,
            adapt_every=None if one_shot else 10,
        )
        config = SimulationConfig(z=0.5, adapt_every=trace.num_ticks if one_shot else 10)
        scenario = dataclasses.replace(tiny_scenario, queries=timeline)
        result = Simulation(scenario, policy_name, CONFIG, config).run()
        np.testing.assert_array_equal(result.containment_per_tick, expected.containment_errors)
        np.testing.assert_array_equal(result.times, expected.times)
        np.testing.assert_array_equal(result.updates_per_tick, expected.updates_per_tick)
        assert result.adaptations == expected.adaptations
        # The empty phase is measured nowhere, and both measured phases are.
        assert np.isnan(result.window_error(0.4 * trace.duration, 0.6 * trace.duration))
        assert not np.isnan(result.window_error(0.0, 0.35 * trace.duration))
        assert not np.isnan(result.window_error(0.65 * trace.duration))
