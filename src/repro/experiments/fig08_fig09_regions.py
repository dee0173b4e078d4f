"""Figures 8 and 9: effect of the number of shedding regions l.

* Figure 8 — Lira-Grid's containment error relative to LIRA as l grows,
  for the three query distributions (z = 0.5).  Expected shape:
  Lira-Grid is worse (ratio > 1) at moderate l and catches up at large
  l, where uniform partitioning reaches sufficient granularity.
* Figure 9 — LIRA's containment error versus l for several throttle
  fractions.  Expected shape: error falls with l and stabilizes; the
  reduction is more pronounced for larger z.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.experiments.common import MEDIUM, ExperimentScale
from repro.experiments.runner import SimJob, run_jobs
from repro.queries import QueryDistribution

DEFAULT_LS = (4, 16, 49, 100, 250)
DISTRIBUTIONS = (
    QueryDistribution.PROPORTIONAL,
    QueryDistribution.INVERSE,
    QueryDistribution.RANDOM,
)


def run_fig08(
    scale: ExperimentScale = MEDIUM,
    ls: tuple[int, ...] = DEFAULT_LS,
    z: float = 0.5,
    jobs: int | None = None,
) -> ExperimentResult:
    """Lira-Grid E_rr^C relative to LIRA vs l, three distributions."""
    cells = [
        (distribution, l, policy)
        for distribution in DISTRIBUTIONS
        for l in ls
        for policy in ("lira", "lira-grid")
    ]
    grid = [SimJob(scale, p, z, scale.lira_config(l=l), d) for d, l, p in cells]
    results = dict(zip(cells, run_jobs(grid, jobs)))
    result = ExperimentResult(
        experiment_id="fig08",
        title="Lira-Grid containment error relative to LIRA vs number of regions",
        x_label="l",
        x=[float(l) for l in ls],
        notes="values > 1 mean region-aware partitioning wins",
    )
    for distribution in DISTRIBUTIONS:
        ratios = []
        for l in ls:
            lira_err = results[distribution, l, "lira"].mean_containment_error
            grid_err = results[distribution, l, "lira-grid"].mean_containment_error
            ratios.append(grid_err / lira_err if lira_err > 0 else float("inf"))
        result.add_series(distribution.value, ratios)
    return result


def run_fig09(
    scale: ExperimentScale = MEDIUM,
    ls: tuple[int, ...] = DEFAULT_LS,
    zs: tuple[float, ...] = (0.4, 0.5, 0.6, 0.75),
    jobs: int | None = None,
) -> ExperimentResult:
    """LIRA E_rr^C vs l for several throttle fractions (proportional)."""
    grid = [SimJob(scale, "lira", z, scale.lira_config(l=l)) for z in zs for l in ls]
    errors = [r.mean_containment_error for r in run_jobs(grid, jobs)]
    result = ExperimentResult(
        experiment_id="fig09",
        title="LIRA containment error vs number of shedding regions",
        x_label="l",
        x=[float(l) for l in ls],
        notes="error should fall with l then stabilize; stronger effect at larger z",
    )
    for k, z in enumerate(zs):
        result.add_series(f"z={z}", errors[k * len(ls) : (k + 1) * len(ls)])
    return result
