"""Unit tests for the simulation harness and scenario builder."""

import dataclasses

import numpy as np
import pytest

from repro.core import LiraConfig
from repro.queries import QueryDistribution
from repro.sim import (
    QueryTimeline,
    Simulation,
    SimulationConfig,
    SimulationResult,
    build_scenario,
    reference_update_count,
)
from repro.sim import scenario as scenario_module
from repro.sim import simulation as simulation_module


class TestSimulationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(z=1.5)
        with pytest.raises(ValueError):
            SimulationConfig(adapt_every=0)
        with pytest.raises(ValueError):
            SimulationConfig(warmup_ticks=-1)


class TestSimulation:
    def test_requires_queries(self, tiny_scenario):
        with pytest.raises(ValueError):
            Simulation(dataclasses.replace(tiny_scenario, queries=[]), "uniform")

    def test_perfect_tracking_at_z_one(self, tiny_scenario):
        """z = 1 with Uniform Delta means delta = delta_min everywhere;
        containment error should be tiny (only within-threshold drift)."""
        result = Simulation(
            tiny_scenario, "uniform", config=SimulationConfig(z=1.0, adapt_every=10)
        ).run()
        assert result.mean_position_error <= tiny_scenario.delta_min + 1e-9

    def test_result_bookkeeping(self, tiny_scenario):
        config = SimulationConfig(z=0.5, adapt_every=10, warmup_ticks=2)
        result = Simulation(tiny_scenario, "uniform", config=config).run()
        assert result.policy_name == "Uniform Delta"
        assert result.z == 0.5
        assert result.ticks_measured == tiny_scenario.trace.num_ticks - 2
        assert result.adaptations == int(np.ceil(tiny_scenario.trace.num_ticks / 10))
        assert result.updates_sent == result.updates_per_tick.sum()
        assert result.updates_admitted == result.updates_sent  # no dropping

    def test_random_drop_admits_fraction(self, tiny_scenario):
        result = Simulation(
            tiny_scenario, "random-drop", config=SimulationConfig(z=0.5, adapt_every=10)
        ).run()
        fraction = result.updates_admitted / result.updates_sent
        assert 0.4 < fraction < 0.6

    def test_deterministic_given_seed(self, tiny_scenario):
        def run():
            return Simulation(
                tiny_scenario,
                "random-drop",
                config=SimulationConfig(z=0.5, adapt_every=10, seed=11),
            ).run()

        a, b = run(), run()
        assert a.mean_containment_error == b.mean_containment_error
        assert a.updates_admitted == b.updates_admitted

    def test_lower_z_higher_error(self, tiny_scenario):
        """Less update budget must cost accuracy (monotonicity)."""
        errors = []
        for z in (0.9, 0.3):
            result = Simulation(
                tiny_scenario, "uniform", config=SimulationConfig(z=z, adapt_every=10)
            ).run()
            errors.append(result.mean_position_error)
        assert errors[0] < errors[1]

    def test_lira_budget_adherence(self, tiny_scenario):
        """LIRA's realized update volume must track z within tolerance."""
        reference = reference_update_count(
            tiny_scenario.trace, tiny_scenario.delta_min
        )
        config = LiraConfig(l=13, alpha=32, z=0.5)
        result = Simulation(
            tiny_scenario, "lira", config, SimulationConfig(z=0.5, adapt_every=10)
        ).run()
        ratio = result.updates_sent / reference
        assert 0.3 < ratio < 0.75  # targeted 0.5 with modeling slack

    def test_per_query_metrics_shape(self, tiny_scenario):
        result = Simulation(
            tiny_scenario, "uniform", config=SimulationConfig(z=0.5, adapt_every=10)
        ).run()
        assert result.per_query_containment.shape == (len(tiny_scenario.queries),)
        assert result.per_query_position.shape == (len(tiny_scenario.queries),)


class TestTimeline:
    """One loop for a static list and a query timeline."""

    def test_list_equals_one_phase_timeline(self, tiny_scenario):
        trace, queries = tiny_scenario.trace, tiny_scenario.queries
        timeline = QueryTimeline.phased([(0.0, queries)], end_time=trace.duration)
        config = SimulationConfig(z=0.5, adapt_every=10)
        results = [
            Simulation(
                dataclasses.replace(tiny_scenario, queries=workload), "random-drop", config=config
            ).run()
            for workload in (queries, timeline)
        ]
        for f in dataclasses.fields(SimulationResult):
            np.testing.assert_array_equal(
                getattr(results[0], f.name), getattr(results[1], f.name), err_msg=f.name
            )

    def test_kernel_built_once_per_active_set(self, tiny_scenario, monkeypatch):
        built = []
        kernel = simulation_module.QueryEvalKernel

        def spy(queries, **index_options):
            built.append([query.query_id for query in queries])
            return kernel(queries, **index_options)

        monkeypatch.setattr(simulation_module, "QueryEvalKernel", spy)
        trace, queries = tiny_scenario.trace, tiny_scenario.queries
        config = SimulationConfig(z=0.5, adapt_every=10, warmup_ticks=3)
        Simulation(tiny_scenario, "uniform", config=config).run()
        assert built == [[query.query_id for query in queries]]

        # Phase a ends inside the warmup; the empty phase needs no kernel.
        a, b, c = queries[:1], queries[1::2], queries[2::2]
        timeline = QueryTimeline.phased(
            [(0.0, a), (trace.dt, b), (100.0, []), (200.0, c)], end_time=trace.duration
        )
        built.clear()
        Simulation(
            dataclasses.replace(tiny_scenario, queries=timeline), "uniform", config=config
        ).run()
        assert built == [[query.query_id for query in phase] for phase in (b, c)]

    def test_requires_timeline_entries(self, tiny_scenario):
        with pytest.raises(ValueError):
            Simulation(dataclasses.replace(tiny_scenario, queries=QueryTimeline()), "uniform")

    def test_ticks_yields_every_tick(self, tiny_scenario):
        sim = Simulation(tiny_scenario, "uniform", config=SimulationConfig(z=0.5))
        steps = list(sim.ticks())
        assert sim.system.shards[0].policy.admission_fraction() == 1.0
        assert [step[0] for step in steps] == list(range(tiny_scenario.trace.num_ticks))
        for tick, t, senders, admitted in steps:
            assert t == tick * tiny_scenario.trace.dt
            assert admitted == senders.size
        assert sum(step[2].size for step in steps) == sim.system.fleet.total_reports


class TestReferenceUpdateCount:
    def test_includes_initial_reports(self, tiny_scenario):
        count = reference_update_count(tiny_scenario.trace, 5.0)
        assert count >= tiny_scenario.trace.num_nodes

    def test_monotone_in_threshold(self, tiny_scenario):
        tight = reference_update_count(tiny_scenario.trace, 5.0)
        loose = reference_update_count(tiny_scenario.trace, 50.0)
        assert loose < tight


class TestScenarioBuilder:
    def test_caching_returns_same_object(self):
        a = build_scenario(n_nodes=100, duration=100.0, side_meters=3000.0, seed=1)
        b = build_scenario(n_nodes=100, duration=100.0, side_meters=3000.0, seed=1)
        assert a is b

    def test_workload_helper_mn_ratio(self, tiny_scenario):
        queries = tiny_scenario.workload(mn_ratio=0.05)
        assert len(queries) == int(round(0.05 * tiny_scenario.n_nodes))

    def test_workload_helper_absolute(self, tiny_scenario):
        queries = tiny_scenario.workload(
            n_queries=7, distribution=QueryDistribution.RANDOM
        )
        assert len(queries) == 7

    def test_workload_helper_validates_args(self, tiny_scenario):
        with pytest.raises(ValueError):
            tiny_scenario.workload()
        with pytest.raises(ValueError):
            tiny_scenario.workload(mn_ratio=0.1, n_queries=5)

    def test_cold_build_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        # Arguments no other test uses, so the in-process memo is cold.
        build_scenario(
            n_nodes=120, duration=60.0, side_meters=2500.0, seed=11,
            reduction_samples=3,
        )
        assert list(tmp_path.iterdir()) == []

    def test_workload_variants_measure_reduction_once(self, monkeypatch):
        calls = []
        measure = scenario_module.measure_reduction_from_trace

        def counted(*args, **kwargs):
            calls.append(args)
            return measure(*args, **kwargs)

        monkeypatch.setattr(scenario_module, "measure_reduction_from_trace", counted)
        spec = dict(
            n_nodes=130, duration=60.0, side_meters=2500.0, seed=12,
            reduction_samples=3,
        )
        a = build_scenario(distribution=QueryDistribution.PROPORTIONAL, **spec)
        b = build_scenario(distribution=QueryDistribution.INVERSE, **spec)
        assert a is not b and a.trace is b.trace
        assert a.reduction is b.reduction
        assert len(calls) == 1

    def test_unknown_reduction_kind_rejected(self):
        with pytest.raises(ValueError):
            build_scenario(
                n_nodes=50, duration=50.0, side_meters=2000.0, reduction="magic"
            )
