"""One job type and one executor for every policy-suite experiment.

The paper's evaluation (Figures 4-13, and the ablations) is a grid of
independent (scene, policy, z, LIRA parameters) simulation runs.  Each
of those experiments builds its grid as a list of :class:`SimJob` values
and runs it through :func:`run_jobs`: in-process, or on a
:class:`~concurrent.futures.ProcessPoolExecutor` when one can win
(:func:`~repro.parallel.pool_is_profitable`).

Scenes are *not* pickled across the pool.  A job names its scene by
value, and :meth:`SimJob.scenario` builds it through the per-process
memo behind :meth:`ExperimentScale.scenario`.  :func:`run_jobs` builds
every scene in the parent before it starts the pool, so ``fork`` workers
inherit the built scenes copy-on-write and job latency is simulation
time, not scene construction; under ``spawn`` or ``forkserver`` each
worker builds each scene at most once.

Determinism: a run seeds its admission lottery and its faults from
``scale.seed`` and adapts every ``scale.adapt_every`` ticks, so results
are bit-identical to running the same jobs serially in any order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.core import LiraConfig
from repro.experiments.common import ExperimentScale
from repro.parallel import pool_is_profitable, usable_cpus
from repro.queries import QueryDistribution
from repro.sim import Deployment, Scenario, Simulation, SimulationConfig
from repro.sim.simulation import SimulationResult

__all__ = ["SimJob", "run_jobs"]


@dataclass(frozen=True)
class SimJob:
    """One simulation, described by value: ``policy`` at throttle
    fraction ``z`` (``None``: THROTLOOP's) with LIRA parameters
    ``config`` on ``deployment``, on the scene
    ``scale.scenario(mn_ratio, side_length, distribution)``."""

    scale: ExperimentScale
    policy: str
    z: float | None
    config: LiraConfig
    distribution: QueryDistribution = QueryDistribution.PROPORTIONAL
    mn_ratio: float = 0.01
    side_length: float = 1000.0
    deployment: Deployment = Deployment()

    def scenario(self) -> Scenario:
        """The job's scene (memoized per process)."""
        return self.scale.scenario(self.mn_ratio, self.side_length, self.distribution)

    def run(self) -> SimulationResult:
        """Execute the job in the current process."""
        sim_config = SimulationConfig(
            z=self.z, adapt_every=self.scale.adapt_every, seed=self.scale.seed
        )
        return Simulation(
            self.scenario(), self.policy, self.config, sim_config, self.deployment
        ).run()


def run_jobs(
    jobs: list[SimJob], n_workers: int | None = None
) -> list[SimulationResult]:
    """Run ``jobs`` on ``n_workers`` processes (``None``: every usable
    CPU), results in job order; one worker, one job or one usable CPU
    stays in-process."""
    jobs = list(jobs)
    n_workers = max(1, min(usable_cpus() if n_workers is None else n_workers, len(jobs)))
    if not pool_is_profitable(n_workers, len(jobs)):
        return [job.run() for job in jobs]
    for job in jobs:
        job.scenario()
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(SimJob.run, jobs))
