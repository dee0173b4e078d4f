"""Parallel sweep engine: fan (z x policy x figure) simulations over cores.

The z-sweeps behind Figures 4-7 (and every other policy-suite figure)
are embarrassingly parallel: each (z, policy) pair is an independent
:class:`~repro.sim.Simulation` run over a shared scenario.  This module
executes such job sets on a :class:`~concurrent.futures.ProcessPoolExecutor`.

Scenarios are *not* pickled across the pool — a worker receives a
:class:`ScenarioSpec` (the hashable argument bundle of
:func:`~repro.sim.build_scenario`) and rebuilds the scenario through the
``lru_cache`` behind ``build_scenario``.  :func:`run_jobs` builds every
distinct spec in the parent before it starts the pool, so ``fork``
workers inherit the built scenarios copy-on-write and job latency is
simulation time, not scene construction; under ``spawn`` or
``forkserver`` each worker builds each spec at most once, then hits its
process-local memo.

Determinism: a job carries its own simulation seed, and each
``Simulation.run`` creates a fresh ``np.random.default_rng(seed)``, so
results are bit-identical to running the same jobs serially in any
order.  ``run_jobs(..., n_workers=1)`` short-circuits the pool entirely
and is the reference execution the equivalence tests compare against.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.core import LiraConfig
from repro.experiments.common import ExperimentScale
from repro.parallel import default_jobs, pool_is_profitable
from repro.queries import QueryDistribution
from repro.sim import Scenario, Simulation, SimulationConfig, build_scenario, make_policies
from repro.sim.simulation import SimulationResult

__all__ = [
    "ScenarioSpec",
    "SimJob",
    "default_jobs",
    "pool_is_profitable",
    "run_job",
    "run_jobs",
    "run_policy_sweep",
    "suite_jobs",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """Hashable, picklable recipe for :func:`~repro.sim.build_scenario`.

    Workers rebuild (or memo-hit) the scenario from this spec instead of
    unpickling multi-megabyte trace arrays per job.
    """

    n_nodes: int = 2000
    mn_ratio: float = 0.01
    side_length: float = 1000.0
    distribution: str = QueryDistribution.PROPORTIONAL.value
    duration: float = 1200.0
    dt: float = 10.0
    seed: int = 7
    side_meters: float = 14_000.0
    collector_spacing: float = 700.0
    delta_min: float = 5.0
    delta_max: float = 100.0
    reduction: str = "empirical"
    reduction_samples: int = 12

    @classmethod
    def from_scale(
        cls,
        scale: ExperimentScale,
        distribution: QueryDistribution = QueryDistribution.PROPORTIONAL,
        mn_ratio: float = 0.01,
        side_length: float = 1000.0,
    ) -> "ScenarioSpec":
        """The spec matching ``scale.scenario(...)`` — same memo key."""
        return cls(
            n_nodes=scale.n_nodes,
            mn_ratio=mn_ratio,
            side_length=side_length,
            distribution=distribution.value,
            duration=scale.duration,
            dt=scale.dt,
            seed=scale.seed,
            side_meters=scale.side_meters,
            collector_spacing=scale.collector_spacing,
            reduction_samples=scale.reduction_samples,
        )

    def build(self) -> Scenario:
        """Build (or fetch from the per-process cache) the scenario."""
        return build_scenario(
            n_nodes=self.n_nodes,
            mn_ratio=self.mn_ratio,
            side_length=self.side_length,
            distribution=QueryDistribution(self.distribution),
            duration=self.duration,
            dt=self.dt,
            seed=self.seed,
            side_meters=self.side_meters,
            collector_spacing=self.collector_spacing,
            delta_min=self.delta_min,
            delta_max=self.delta_max,
            reduction=self.reduction,
            reduction_samples=self.reduction_samples,
        )


@dataclass(frozen=True)
class SimJob:
    """One (scenario, policy, z) simulation, fully described by value.

    ``tag`` is caller metadata (e.g. the figure id) threaded through to
    the results; it does not influence execution.
    """

    spec: ScenarioSpec
    policy: str
    z: float
    adapt_every: int
    seed: int
    config: LiraConfig
    tag: str = ""


def run_job(job: SimJob) -> SimulationResult:
    """Execute one job in the current process."""
    scenario = job.spec.build()
    policy = make_policies(scenario, job.config, include=(job.policy,))[job.policy]
    sim_config = SimulationConfig(z=job.z, adapt_every=job.adapt_every, seed=job.seed)
    return Simulation(scenario.trace, scenario.queries, policy, sim_config).run()


def run_jobs(
    jobs: list[SimJob], n_workers: int | None = None
) -> list[SimulationResult]:
    """Run jobs, results in job order; ``n_workers <= 1`` stays in-process."""
    jobs = list(jobs)
    if not jobs:
        return []
    if n_workers is None:
        n_workers = default_jobs()
    n_workers = max(1, min(n_workers, len(jobs)))
    if not pool_is_profitable(n_workers, len(jobs)):
        return [run_job(job) for job in jobs]
    for spec in dict.fromkeys(job.spec for job in jobs):
        spec.build()
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(run_job, jobs))


def suite_jobs(
    scale: ExperimentScale,
    zs: tuple[float, ...],
    include: tuple[str, ...],
    distribution: QueryDistribution = QueryDistribution.PROPORTIONAL,
    config: LiraConfig | None = None,
    tag: str = "",
) -> list[SimJob]:
    """The (z x policy) job matrix of one policy-suite sweep.

    Seeds and adaptation cadence mirror
    :func:`~repro.experiments.common.run_policy_suite`, so executing
    these jobs — serially or on the pool — reproduces its numbers
    exactly.
    """
    spec = ScenarioSpec.from_scale(scale, distribution=distribution)
    cfg = config if config is not None else scale.lira_config()
    return [
        SimJob(
            spec=spec,
            policy=policy,
            z=z,
            adapt_every=scale.adapt_every,
            seed=scale.seed,
            config=cfg,
            tag=tag,
        )
        for z in zs
        for policy in include
    ]


def run_policy_sweep(
    scale: ExperimentScale,
    zs: tuple[float, ...],
    include: tuple[str, ...],
    distribution: QueryDistribution = QueryDistribution.PROPORTIONAL,
    config: LiraConfig | None = None,
    n_workers: int | None = None,
) -> dict[float, dict[str, SimulationResult]]:
    """Sweep (z x policy) and return ``results[z][policy]``."""
    jobs = suite_jobs(scale, zs, include, distribution=distribution, config=config)
    results = run_jobs(jobs, n_workers=n_workers)
    out: dict[float, dict[str, SimulationResult]] = {z: {} for z in zs}
    for job, result in zip(jobs, results):
        out[job.z][job.policy] = result
    return out
