"""Figures 4-7: query-result error versus throttle fraction z.

* Figure 4 — mean position error E_rr^P, proportional queries;
* Figure 5 — mean containment error E_rr^C, proportional queries;
* Figure 6 — E_rr^C, inverse query distribution;
* Figure 7 — E_rr^C, random query distribution.

Each figure plots the four policies, both relative to LIRA (the paper's
left axis) and absolute (right axis).  Expected shape: LIRA best at
every z; relative gaps explode as z → 1 (LIRA sheds from query-free
regions at nearly zero error) and collapse to 1 as z approaches the
point where all threshold policies converge to ∀Δᵢ = Δ⊣.

Every sweep runs its (distribution x z x policy) jobs through
:func:`~repro.experiments.runner.run_jobs` on ``jobs`` processes (every
usable CPU by default), with numbers bit-identical to a serial run.
:func:`run_figs04_07` runs all four figures from one job list, running
the proportional-distribution jobs Figures 4 and 5 share once.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.experiments.common import MEDIUM, ExperimentScale, relative_to
from repro.experiments.runner import SimJob, run_jobs
from repro.queries import QueryDistribution
from repro.sim.simulation import SimulationResult

DEFAULT_ZS = (0.3, 0.4, 0.5, 0.6, 0.75, 0.9)
POLICY_ORDER = ("lira", "lira-grid", "uniform", "random-drop")

#: The four z-sweep figures as (figure id, metric, query distribution).
ZSWEEP_FIGURES = (
    ("fig04", "mean_position_error", QueryDistribution.PROPORTIONAL),
    ("fig05", "mean_containment_error", QueryDistribution.PROPORTIONAL),
    ("fig06", "mean_containment_error", QueryDistribution.INVERSE),
    ("fig07", "mean_containment_error", QueryDistribution.RANDOM),
)


def _format_zsweep(
    metric: str,
    distribution: QueryDistribution,
    zs: tuple[float, ...],
    results_by_z: dict[float, dict[str, SimulationResult]],
) -> ExperimentResult:
    """Assemble the absolute + relative series tables from suite results."""
    absolute: dict[str, list[float]] = {name: [] for name in POLICY_ORDER}
    relative: dict[str, list[float]] = {name: [] for name in POLICY_ORDER}
    for z in zs:
        results = results_by_z[z]
        rel = relative_to(results, metric)
        for name in POLICY_ORDER:
            absolute[name].append(getattr(results[name], metric))
            relative[name].append(rel[name])
    label = "E_rr^P (m)" if metric == "mean_position_error" else "E_rr^C"
    result = ExperimentResult(
        experiment_id="zsweep",
        title=f"{label} vs throttle fraction ({distribution.value} queries)",
        x_label="z",
        x=list(zs),
        notes="relative series are policy error / LIRA error",
    )
    for name in POLICY_ORDER:
        result.add_series(f"{name} abs", absolute[name])
    for name in POLICY_ORDER:
        if name != "lira":
            result.add_series(f"{name} rel", relative[name])
    return result


def _sweeps(
    scale: ExperimentScale,
    zs: tuple[float, ...],
    distributions: list[QueryDistribution],
    jobs: int | None,
) -> dict[QueryDistribution, dict[float, dict[str, SimulationResult]]]:
    """``results[distribution][z][policy]`` of the four policies, from one
    job list run on ``jobs`` processes."""
    config = scale.lira_config()
    cells = [(d, z, policy) for d in distributions for z in zs for policy in POLICY_ORDER]
    grid = [SimJob(scale, policy, z, config, d) for d, z, policy in cells]
    out: dict[QueryDistribution, dict[float, dict[str, SimulationResult]]] = {
        distribution: {z: {} for z in zs} for distribution in distributions
    }
    for (distribution, z, policy), result in zip(cells, run_jobs(grid, jobs)):
        out[distribution][z][policy] = result
    return out


def run_zsweep(
    metric: str,
    distribution: QueryDistribution,
    scale: ExperimentScale = MEDIUM,
    zs: tuple[float, ...] = DEFAULT_ZS,
    jobs: int | None = None,
) -> ExperimentResult:
    """Sweep z for all four policies; report absolute + relative ``metric``.

    ``metric`` is a :class:`~repro.sim.SimulationResult` attribute:
    ``mean_position_error`` or ``mean_containment_error``.
    """
    results_by_z = _sweeps(scale, zs, [distribution], jobs)[distribution]
    return _format_zsweep(metric, distribution, zs, results_by_z)


def run_figs04_07(
    scale: ExperimentScale = MEDIUM,
    zs: tuple[float, ...] = DEFAULT_ZS,
    jobs: int | None = None,
) -> dict[str, ExperimentResult]:
    """All four z-sweep figures from one (distribution x z x policy) job
    list: 3 distributions x len(zs) x 4 policies jobs, Figures 4 and 5
    both read from the proportional-distribution results."""
    distributions = sorted(
        {dist for _, _, dist in ZSWEEP_FIGURES}, key=lambda d: d.value
    )
    sweeps = _sweeps(scale, zs, distributions, jobs)
    out = {}
    for fig_id, metric, dist in ZSWEEP_FIGURES:
        result = _format_zsweep(metric, dist, zs, sweeps[dist])
        result.experiment_id = fig_id
        out[fig_id] = result
    return out


def run_fig04(
    scale: ExperimentScale = MEDIUM, zs=DEFAULT_ZS, jobs: int | None = None
) -> ExperimentResult:
    """Figure 4: position error vs z, proportional distribution."""
    result = run_zsweep(
        "mean_position_error", QueryDistribution.PROPORTIONAL, scale, zs, jobs=jobs
    )
    result.experiment_id = "fig04"
    return result


def run_fig05(
    scale: ExperimentScale = MEDIUM, zs=DEFAULT_ZS, jobs: int | None = None
) -> ExperimentResult:
    """Figure 5: containment error vs z, proportional distribution."""
    result = run_zsweep(
        "mean_containment_error", QueryDistribution.PROPORTIONAL, scale, zs, jobs=jobs
    )
    result.experiment_id = "fig05"
    return result


def run_fig06(
    scale: ExperimentScale = MEDIUM, zs=DEFAULT_ZS, jobs: int | None = None
) -> ExperimentResult:
    """Figure 6: containment error vs z, inverse distribution."""
    result = run_zsweep(
        "mean_containment_error", QueryDistribution.INVERSE, scale, zs, jobs=jobs
    )
    result.experiment_id = "fig06"
    return result


def run_fig07(
    scale: ExperimentScale = MEDIUM, zs=DEFAULT_ZS, jobs: int | None = None
) -> ExperimentResult:
    """Figure 7: containment error vs z, random distribution."""
    result = run_zsweep(
        "mean_containment_error", QueryDistribution.RANDOM, scale, zs, jobs=jobs
    )
    result.experiment_id = "fig07"
    return result
