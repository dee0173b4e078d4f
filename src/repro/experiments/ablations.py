"""Ablation experiments for LIRA's design choices (beyond the paper).

* Speed factor — Section 3.1.2 argues the update budget must be scaled
  by per-region average speeds.  We measure budget adherence (updates
  actually sent / the full-accuracy reference) with and without the
  correction; without it, regions full of fast nodes are under-charged
  and the realized update volume overshoots the budget.
* α sizing rule — Section 3.2.5's ``α = 2^⌊log2(x·√l)⌋`` with x = 10.
  We sweep α at fixed l and locate the knee of the error curve; the
  rule's α should sit at or past it.
"""

from __future__ import annotations

from repro.core import LiraLoadShedder, StatisticsGrid, auto_alpha
from repro.experiments.base import ExperimentResult
from repro.experiments.common import MEDIUM, ExperimentScale
from repro.experiments.runner import SimJob, run_jobs
from repro.sim import reference_update_count
from repro.timing import Stopwatch


def run_ablation_speed_factor(
    scale: ExperimentScale = MEDIUM,
    zs: tuple[float, ...] = (0.4, 0.5, 0.6, 0.75),
    jobs: int | None = None,
) -> ExperimentResult:
    """Budget adherence with and without the speed-factor correction."""
    scenario = scale.scenario()
    reference = reference_update_count(scenario.trace, scenario.delta_min)
    grid = [
        SimJob(scale, "lira", z, scale.lira_config(use_speed=use_speed))
        for use_speed in (True, False)
        for z in zs
    ]
    results = run_jobs(grid, jobs)
    result = ExperimentResult(
        experiment_id="ablation-speed",
        title="Update budget adherence: sent/reference vs z, +/- speed factor",
        x_label="z",
        x=list(zs),
        notes="values should track z; closer tracking = better budget model",
    )
    for k, label in enumerate(("with speed", "without speed")):
        runs = results[k * len(zs) : (k + 1) * len(zs)]
        result.add_series(f"sent ratio ({label})", [r.updates_sent / reference for r in runs])
        result.add_series(f"E_rr^C ({label})", [r.mean_containment_error for r in runs])
    return result


def run_ablation_increment(
    scale: ExperimentScale = MEDIUM,
    increments: tuple[float, ...] = (0.5, 1.0, 5.0, 20.0),
    z: float = 0.5,
    jobs: int | None = None,
) -> ExperimentResult:
    """Effect of the greedy increment c_Δ (Theorem 3.1's segment size).

    Smaller c_Δ means a finer piecewise-linear approximation of f and a
    solution closer to the continuous optimum, at O(κ·l·log l) cost.
    Expect: error roughly flat until c_Δ gets coarse, adaptation time
    falling as c_Δ grows.  The error column comes from the job list; the
    time column is timed here, one standalone adaptation per c_Δ.
    """
    configs = [scale.lira_config(increment=increment) for increment in increments]
    results = run_jobs([SimJob(scale, "lira", z, config) for config in configs], jobs)
    scenario = scale.scenario()
    trace = scenario.trace
    result = ExperimentResult(
        experiment_id="ablation-increment",
        title="Greedy increment c_delta: accuracy vs adaptation cost",
        x_label="c_delta (m)",
        x=list(increments),
        notes="error should stay near-flat until c_delta is coarse; "
        "adaptation time falls with c_delta (fewer segments kappa)",
    )
    times = []
    for config in configs:
        grid = StatisticsGrid.from_snapshot(
            trace.bounds, config.resolved_alpha, trace.snapshot(0),
            trace.speeds(0), scenario.queries,
        )
        shedder = LiraLoadShedder(config, scenario.reduction)
        with Stopwatch() as stopwatch:
            shedder.adapt(grid)
        times.append(stopwatch.elapsed * 1000.0)
    result.add_series("E_rr^C", [r.mean_containment_error for r in results])
    result.add_series("adaptation time (ms)", times)
    return result


def run_ablation_alpha_rule(
    scale: ExperimentScale = MEDIUM,
    alphas: tuple[int, ...] = (8, 16, 32, 64, 128),
    z: float = 0.5,
    jobs: int | None = None,
) -> ExperimentResult:
    """LIRA error vs statistics-grid resolution α at fixed l."""
    grid = [SimJob(scale, "lira", z, scale.lira_config(alpha=alpha)) for alpha in alphas]
    results = run_jobs(grid, jobs)
    rule_alpha = auto_alpha(scale.l)
    result = ExperimentResult(
        experiment_id="ablation-alpha",
        title=f"LIRA containment error vs alpha at l={scale.l} "
        f"(sizing rule gives alpha={rule_alpha})",
        x_label="alpha",
        x=[float(a) for a in alphas],
        notes="error should stop improving at/near the rule's alpha",
    )
    result.add_series("E_rr^C", [r.mean_containment_error for r in results])
    return result
