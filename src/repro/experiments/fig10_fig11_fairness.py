"""Figures 10 and 11: effect of the fairness threshold Δ⇔.

* Figure 10 — standard deviation (D_ev^C) and coefficient of variance
  (C_ov^C) of containment error for LIRA vs Uniform Δ as Δ⇔ sweeps,
  z = 0.75.  Paper shape: LIRA's D_ev^C *decreases* with a looser
  fairness threshold and stays below Uniform Δ's, while its C_ov^C
  increases (Uniform Δ is "more fair" relative to its own larger mean).
* Figure 11 — LIRA's mean position error versus Δ⇔ for several z.
  Paper shape: insensitive near z ≈ small (everything at Δ⊣) and
  z ≈ 1 (little shedding needed); most sensitive in between.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.experiments.common import MEDIUM, ExperimentScale
from repro.experiments.runner import SimJob, run_jobs

DEFAULT_FAIRNESS = (10.0, 25.0, 50.0, 75.0, 95.0)


def run_fig10(
    scale: ExperimentScale = MEDIUM,
    fairness_values: tuple[float, ...] = DEFAULT_FAIRNESS,
    z: float = 0.75,
    jobs: int | None = None,
) -> ExperimentResult:
    """Fairness metrics (D_ev^C, C_ov^C) for LIRA and Uniform Δ vs Δ⇔."""
    grid = [SimJob(scale, "uniform", z, scale.lira_config())] + [
        SimJob(scale, "lira", z, scale.lira_config(fairness=fairness))
        for fairness in fairness_values
    ]
    uniform, *lira = (r.containment_fairness for r in run_jobs(grid, jobs))
    n = len(fairness_values)
    result = ExperimentResult(
        experiment_id="fig10",
        title="Fairness in query result accuracy vs fairness threshold (z=%.2f)" % z,
        x_label="fairness threshold (m)",
        x=list(fairness_values),
        notes="Uniform-Delta rows are constant (it has no fairness knob)",
    )
    result.add_series("LIRA D_ev^C", [stats.std_dev for stats in lira])
    result.add_series("Uniform D_ev^C", [uniform.std_dev] * n)
    result.add_series("LIRA C_ov^C", [stats.coefficient_of_variance for stats in lira])
    result.add_series("Uniform C_ov^C", [uniform.coefficient_of_variance] * n)
    return result


def run_fig11(
    scale: ExperimentScale = MEDIUM,
    fairness_values: tuple[float, ...] = DEFAULT_FAIRNESS,
    zs: tuple[float, ...] = (0.3, 0.5, 0.7, 0.9),
    jobs: int | None = None,
) -> ExperimentResult:
    """LIRA mean position error vs Δ⇔ for several throttle fractions."""
    grid = [
        SimJob(scale, "lira", z, scale.lira_config(fairness=fairness))
        for z in zs
        for fairness in fairness_values
    ]
    errors = [r.mean_position_error for r in run_jobs(grid, jobs)]
    n = len(fairness_values)
    result = ExperimentResult(
        experiment_id="fig11",
        title="Impact of fairness threshold on E_rr^P for different z",
        x_label="fairness threshold (m)",
        x=list(fairness_values),
        notes="sensitivity to fairness should peak at intermediate z",
    )
    for k, z in enumerate(zs):
        result.add_series(f"z={z}", errors[k * n : (k + 1) * n])
    return result
