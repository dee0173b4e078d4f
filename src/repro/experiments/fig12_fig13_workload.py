"""Figures 12 and 13: effect of workload shape.

* Figure 12 — Uniform Δ's containment error relative to LIRA versus l,
  for query-to-node ratios m/n ∈ {0.01, 0.1} (z = 0.5).  Paper shape:
  LIRA's advantage is an order of magnitude larger at m/n = 0.01
  (many query-free regions to shed from) but remains ~2x at m/n = 0.1.
* Figure 13 — LIRA's position and containment error versus the query
  side-length parameter w (z = 0.5).  Paper shape: E_rr^P grows with w
  (larger queries leave less room to shed without touching results)
  while E_rr^C falls (set-based error dilutes in larger result sets).
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.experiments.common import MEDIUM, ExperimentScale
from repro.experiments.runner import SimJob, run_jobs


def run_fig12(
    scale: ExperimentScale = MEDIUM,
    ls: tuple[int, ...] = (4, 16, 49, 100, 250),
    mn_ratios: tuple[float, ...] = (0.01, 0.1),
    z: float = 0.5,
    jobs: int | None = None,
) -> ExperimentResult:
    """Uniform-Δ E_rr^C relative to LIRA vs l, for two m/n ratios."""
    cells = [(mn, l, policy) for mn in mn_ratios for l in ls for policy in ("lira", "uniform")]
    grid = [
        SimJob(scale, policy, z, scale.lira_config(l=l), mn_ratio=mn)
        for mn, l, policy in cells
    ]
    results = dict(zip(cells, run_jobs(grid, jobs)))
    result = ExperimentResult(
        experiment_id="fig12",
        title="Uniform-Delta containment error relative to LIRA vs l, by m/n",
        x_label="l",
        x=[float(l) for l in ls],
        notes="LIRA's advantage should be much larger at small m/n",
    )
    for mn in mn_ratios:
        ratios = []
        for l in ls:
            lira_err = results[mn, l, "lira"].mean_containment_error
            uni_err = results[mn, l, "uniform"].mean_containment_error
            ratios.append(uni_err / lira_err if lira_err > 0 else float("inf"))
        result.add_series(f"m/n={mn}", ratios)
    return result


def run_fig13(
    scale: ExperimentScale = MEDIUM,
    side_lengths: tuple[float, ...] = (250.0, 500.0, 1000.0, 2000.0, 3000.0),
    z: float = 0.5,
    jobs: int | None = None,
) -> ExperimentResult:
    """LIRA E_rr^P and E_rr^C vs query side length parameter w."""
    config = scale.lira_config()
    grid = [SimJob(scale, "lira", z, config, side_length=w) for w in side_lengths]
    results = run_jobs(grid, jobs)
    result = ExperimentResult(
        experiment_id="fig13",
        title="Impact of query side length on LIRA errors (z=%.2f)" % z,
        x_label="w (m)",
        x=list(side_lengths),
        notes="position error should rise with w; containment error should fall",
    )
    result.add_series("E_rr^P (m)", [r.mean_position_error for r in results])
    result.add_series("E_rr^C", [r.mean_containment_error for r in results])
    return result
