"""Equivalence proofs for the one sweep path.

Every policy-suite experiment runs its simulations as a list of
``SimJob`` values through ``run_jobs``.  The acceptance bar is
*numerical identity* with the serial brute-force path (the per-query
measurement loop of ``tests/oracles/measurement.py``, over a scene and
policy built here from the test's own parameters): same per-query
errors, same fairness statistics, same update counts, bit for bit,
in-process and on a two-worker pool alike.
"""

import pickle

import numpy as np
import pytest

from repro.experiments.common import SMALL, ExperimentScale
from repro.experiments.runner import SimJob, run_jobs
from repro.queries import QueryDistribution
from repro.sim import Simulation, SimulationConfig
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

Z = 0.5
#: One job list over two scenes (each its own distribution and m/n), two
#: region counts l and two policies.
CELLS = [
    (distribution, mn_ratio, l, policy)
    for distribution, mn_ratio in (
        (QueryDistribution.PROPORTIONAL, 0.01),
        (QueryDistribution.INVERSE, 0.02),
    )
    for l in (16, SMALL.l)
    for policy in ("lira", "lira-grid")
]


def _jobs():
    return [
        SimJob(SMALL_EQ, policy, Z, SMALL_EQ.lira_config(l=l), distribution, mn_ratio)
        for distribution, mn_ratio, l, policy in CELLS
    ]


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
def brute_force_results():
    """The serial brute-force reference, one per cell, in cell order."""
    results = []
    for distribution, mn_ratio, l, policy_name in CELLS:
        scenario = SMALL_EQ.scenario(mn_ratio=mn_ratio, distribution=distribution)
        config = SMALL_EQ.lira_config(l=l)
        sim_config = SimulationConfig(z=Z, adapt_every=SMALL_EQ.adapt_every, seed=SMALL_EQ.seed)
        simulation = Simulation(scenario, policy_name, config, sim_config)
        results.append(run_brute_force(simulation))
    return results


def test_the_cells_tell_their_results_apart(brute_force_results):
    """Each field a cell varies changes its result, so a job that dropped
    one would fail the equivalences below."""
    errors = [r.mean_containment_error for r in brute_force_results]
    assert len(set(errors)) == len(errors)


class TestKernelEquivalence:
    def test_kernel_matches_bruteforce_small_scale(self, brute_force_results):
        """In-process ``run_jobs`` == serial brute force, field for field."""
        results = run_jobs(_jobs(), n_workers=1)
        assert len(results) == len(brute_force_results)
        for want, got in zip(brute_force_results, results):
            assert_results_identical(want, got)


class TestParallelRunner:
    def test_jobs_are_picklable(self):
        jobs = _jobs()
        restored = pickle.loads(pickle.dumps(jobs))
        assert restored == jobs
        assert [job.scenario() for job in restored] == [job.scenario() for job in jobs]

    def test_parallel_matches_bruteforce_small_scale(self, brute_force_results):
        """2-worker pool run == serial brute force, field for field."""
        results = run_jobs(_jobs(), n_workers=2)
        assert len(results) == len(brute_force_results)
        for want, got in zip(brute_force_results, results):
            assert_results_identical(want, got)

    def test_run_jobs_serial_equals_run_job(self):
        jobs = _jobs()[:2]
        for pooled, job in zip(run_jobs(jobs, n_workers=1), jobs):
            assert_results_identical(pooled, job.run())

    def test_run_jobs_empty(self):
        assert run_jobs([], n_workers=4) == []

    def test_results_in_job_order(self):
        """A job three times longer than the rest goes first: a pool that
        returned results as they complete would hand the short ones back
        ahead of it."""
        jobs = [SimJob(SMALL, "lira", Z, SMALL.lira_config())] + _jobs()
        results = run_jobs(jobs, n_workers=2)
        assert len(results) == len(jobs)
        for job, got in zip(jobs, results):
            assert_results_identical(job.run(), got)


class TestReferenceUpdateCountCache:
    def test_memoized_per_trace_and_threshold(self):
        from repro.sim import reference_update_count

        trace = SMALL_EQ.scenario().trace
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
