"""Experiment harness: one entry per paper figure/table, plus ablations.

Run from the command line::

    python -m repro.experiments fig04 --scale small
    python -m repro.experiments all --scale medium

or call the ``run_*`` functions directly.
"""

from repro.experiments.ablations import (
    run_ablation_alpha_rule,
    run_ablation_increment,
    run_ablation_speed_factor,
)
from repro.experiments.replication import replicate
from repro.experiments.extensions import (
    run_ext_adaptivity,
    run_ext_safe_region,
    run_ext_sampling,
    run_ext_snapshot,
)
from repro.experiments.base import ExperimentResult, Series
from repro.experiments.common import FULL, MEDIUM, SCALES, SMALL, ExperimentScale
from repro.experiments.fig01_reduction import run_fig01
from repro.experiments.fig03_partitioning import run_fig03
from repro.experiments.fig08_fig09_regions import run_fig08, run_fig09
from repro.experiments.fig10_fig11_fairness import run_fig10, run_fig11
from repro.experiments.fig12_fig13_workload import run_fig12, run_fig13
from repro.experiments.fig14_server_cost import run_fig14
from repro.experiments.resilience import run_resilience
from repro.experiments.table1_preference import run_table1
from repro.experiments.table3_messaging import run_table3
from repro.experiments.zsweep import run_fig04, run_fig05, run_fig06, run_fig07

#: Registry of all experiments; each callable accepts ``scale=``
#: except the purely synthetic table1.
EXPERIMENTS = {
    "fig01": run_fig01,
    "table1": run_table1,
    "fig03": run_fig03,
    "fig04": run_fig04,
    "fig05": run_fig05,
    "fig06": run_fig06,
    "fig07": run_fig07,
    "fig08": run_fig08,
    "fig09": run_fig09,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
    "table3": run_table3,
    "resilience": run_resilience,
    "ablation-speed": run_ablation_speed_factor,
    "ablation-alpha": run_ablation_alpha_rule,
    "ablation-increment": run_ablation_increment,
    "ext-snapshot": run_ext_snapshot,
    "ext-safe-region": run_ext_safe_region,
    "ext-adaptivity": run_ext_adaptivity,
    "ext-sampling": run_ext_sampling,
}

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "ExperimentScale",
    "FULL",
    "MEDIUM",
    "SCALES",
    "SMALL",
    "Series",
    "replicate",
    "run_ablation_alpha_rule",
    "run_ablation_increment",
    "run_ablation_speed_factor",
    "run_fig01",
    "run_fig03",
    "run_fig04",
    "run_fig05",
    "run_fig06",
    "run_fig07",
    "run_fig08",
    "run_fig09",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_ext_adaptivity",
    "run_ext_safe_region",
    "run_ext_sampling",
    "run_ext_snapshot",
    "run_resilience",
    "run_table1",
    "run_table3",
]
