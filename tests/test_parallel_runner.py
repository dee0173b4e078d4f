"""Equivalence proofs for the performance engine.

The acceptance bar of the vectorized kernel and the parallel sweep
engine is *numerical identity* with the serial brute-force path: same
per-query errors, same fairness statistics, same update counts, bit for
bit.  These tests run the three execution modes — brute-force serial,
kernel serial, kernel parallel (2 workers) — on the SMALL experiment
scale and compare every ``SimulationResult`` field exactly.
"""

import numpy as np
import pytest

from repro.experiments.common import SMALL, ExperimentScale, run_policy_suite
from repro.experiments.runner import (
    ScenarioSpec,
    run_job,
    run_jobs,
    run_policy_sweep,
    suite_jobs,
)
from repro.sim import Simulation, SimulationConfig, make_policies
from tests.oracles.measurement import run_brute_force

#: SMALL, shortened in duration only — the acceptance scale's node count,
#: geometry, and LIRA parameters, kept affordable for a 3x execution.
SMALL_EQ = ExperimentScale(
    name="small",
    n_nodes=SMALL.n_nodes,
    duration=200.0,
    dt=SMALL.dt,
    side_meters=SMALL.side_meters,
    collector_spacing=SMALL.collector_spacing,
    l=SMALL.l,
    alpha=SMALL.alpha,
    reduction_samples=SMALL.reduction_samples,
    adapt_every=SMALL.adapt_every,
    seed=SMALL.seed,
)

POLICIES = ("lira", "random-drop")
Z = 0.5


def assert_results_identical(a, b):
    """Every SimulationResult field must match exactly (NaN == NaN)."""
    assert a.policy_name == b.policy_name
    assert a.z == b.z
    assert a.mean_containment_error == b.mean_containment_error
    assert a.mean_position_error == b.mean_position_error
    assert a.containment_fairness == b.containment_fairness
    assert a.position_fairness == b.position_fairness
    np.testing.assert_array_equal(a.per_query_containment, b.per_query_containment)
    np.testing.assert_array_equal(a.per_query_position, b.per_query_position)
    assert a.updates_sent == b.updates_sent
    assert a.updates_admitted == b.updates_admitted
    assert a.ticks_measured == b.ticks_measured
    assert a.adaptations == b.adaptations
    np.testing.assert_array_equal(a.updates_per_tick, b.updates_per_tick)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.containment_per_tick, b.containment_per_tick)


@pytest.fixture(scope="module")
def small_scenario():
    return SMALL_EQ.scenario()


@pytest.fixture(scope="module")
def brute_force_results(small_scenario):
    """The serial brute-force reference: RangeQuery.evaluate + setdiff1d."""
    config = SMALL_EQ.lira_config()
    policies = make_policies(small_scenario, config, include=POLICIES)
    sim_config = SimulationConfig(
        z=Z, adapt_every=SMALL_EQ.adapt_every, seed=SMALL_EQ.seed
    )
    return {
        name: run_brute_force(
            Simulation(small_scenario.trace, small_scenario.queries, policy, sim_config)
        )
        for name, policy in policies.items()
    }


class TestKernelEquivalence:
    def test_kernel_matches_bruteforce_small_scale(
        self, small_scenario, brute_force_results
    ):
        kernel_results = run_policy_suite(
            small_scenario, SMALL_EQ.lira_config(), Z, SMALL_EQ, include=POLICIES
        )
        for name in POLICIES:
            assert_results_identical(brute_force_results[name], kernel_results[name])


class TestParallelRunner:
    def test_spec_matches_scale_scenario_cache(self, small_scenario):
        spec = ScenarioSpec.from_scale(SMALL_EQ)
        assert spec.build() is small_scenario  # same lru_cache entry

    def test_jobs_are_picklable(self):
        import pickle

        jobs = suite_jobs(SMALL_EQ, (Z,), POLICIES, tag="fig")
        restored = pickle.loads(pickle.dumps(jobs))
        assert restored == jobs

    def test_parallel_matches_bruteforce_small_scale(self, brute_force_results):
        """2-worker pool run == serial brute force, field for field."""
        swept = run_policy_sweep(SMALL_EQ, (Z,), POLICIES, n_workers=2)
        for name in POLICIES:
            assert_results_identical(brute_force_results[name], swept[Z][name])

    def test_run_jobs_serial_equals_run_job(self):
        jobs = suite_jobs(SMALL_EQ, (Z,), ("random-drop",))
        [pooled] = run_jobs(jobs, n_workers=1)
        direct = run_job(jobs[0])
        assert_results_identical(pooled, direct)

    def test_run_jobs_empty(self):
        assert run_jobs([], n_workers=4) == []

    def test_results_in_job_order(self):
        jobs = suite_jobs(SMALL_EQ, (0.4, 0.9), ("random-drop",))
        results = run_jobs(jobs, n_workers=2)
        assert [j.z for j in jobs] == [0.4, 0.9]
        # Lower budget (smaller z) admits fewer updates.
        assert results[0].updates_admitted < results[1].updates_admitted


class TestReferenceUpdateCountCache:
    def test_memoized_per_trace_and_threshold(self, small_scenario):
        from repro.sim import reference_update_count

        trace = small_scenario.trace
        first = reference_update_count(trace, 5.0)
        assert trace._reference_update_cache[5.0] == first
        # Poison the cache: a second call must not recompute.
        trace._reference_update_cache[5.0] = -123
        assert reference_update_count(trace, 5.0) == -123
        del trace._reference_update_cache[5.0]
        assert reference_update_count(trace, 5.0) == first
        loose = reference_update_count(trace, 50.0)
        assert loose < first
        assert set(trace._reference_update_cache) == {5.0, 50.0}
