"""Common machinery for the figure/table experiments.

Defines the experiment *scales* (SMALL for benchmarks and CI, MEDIUM
for the recorded EXPERIMENTS.md runs, FULL approaching the paper's
setup); every accuracy figure runs its simulations as
:class:`~repro.experiments.runner.SimJob` lists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core import LiraConfig
from repro.queries import QueryDistribution
from repro.sim import Scenario, build_scenario
from repro.sim.simulation import SimulationResult


@dataclass(frozen=True)
class ExperimentScale:
    """A coherent set of sizes for trace, workload, and LIRA parameters."""

    name: str
    n_nodes: int
    duration: float
    dt: float
    side_meters: float
    collector_spacing: float
    l: int
    alpha: int
    reduction_samples: int
    adapt_every: int
    seed: int = 7

    def scenario(
        self,
        mn_ratio: float = 0.01,
        side_length: float = 1000.0,
        distribution: QueryDistribution = QueryDistribution.PROPORTIONAL,
    ) -> Scenario:
        """Build (cached) the scenario for this scale."""
        return build_scenario(
            n_nodes=self.n_nodes,
            mn_ratio=mn_ratio,
            side_length=side_length,
            distribution=distribution,
            duration=self.duration,
            dt=self.dt,
            seed=self.seed,
            side_meters=self.side_meters,
            collector_spacing=self.collector_spacing,
            reduction_samples=self.reduction_samples,
        )

    def lira_config(self, **overrides) -> LiraConfig:
        """The LiraConfig for this scale, with optional field overrides."""
        base = LiraConfig(l=self.l, alpha=self.alpha)
        return replace(base, **overrides)


SMALL = ExperimentScale(
    name="small",
    n_nodes=800,
    duration=600.0,
    dt=10.0,
    side_meters=6000.0,
    collector_spacing=600.0,
    l=49,
    alpha=64,
    reduction_samples=8,
    adapt_every=20,
)

MEDIUM = ExperimentScale(
    name="medium",
    n_nodes=2500,
    duration=1500.0,
    dt=10.0,
    side_meters=10_000.0,
    collector_spacing=700.0,
    l=100,
    alpha=128,
    reduction_samples=12,
    adapt_every=30,
)

FULL = ExperimentScale(
    name="full",
    n_nodes=5000,
    duration=3600.0,
    dt=10.0,
    side_meters=14_000.0,
    collector_spacing=700.0,
    l=250,
    alpha=128,
    reduction_samples=16,
    adapt_every=30,
)

SCALES = {scale.name: scale for scale in (SMALL, MEDIUM, FULL)}


def relative_to(results: dict[str, SimulationResult], metric: str) -> dict[str, float]:
    """Each policy's ``metric`` relative to LIRA's (LIRA := 1.0).

    Zero LIRA error with nonzero competitor error reports the paper's
    "very high relative error" case as ``inf``.
    """
    lira_value = getattr(results["lira"], metric)
    out = {}
    for name, result in results.items():
        value = getattr(result, metric)
        if lira_value > 0:
            out[name] = value / lira_value
        else:
            out[name] = float("inf") if value > 0 else 1.0
    return out
