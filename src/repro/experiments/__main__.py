"""Command-line experiment runner.

Examples::

    python -m repro.experiments fig04 --scale small
    python -m repro.experiments all --scale medium
    python -m repro.experiments list
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from repro.experiments import EXPERIMENTS, SCALES
from repro.experiments.base import ExperimentResult
from repro.timing import Stopwatch


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the LIRA paper's figures and tables.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e.g. fig04, table3), 'all', or 'list'",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="small",
        help="experiment scale preset (default: small)",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render each result as an ASCII chart in addition to the table",
    )
    parser.add_argument(
        "--logy",
        action="store_true",
        help="use a log y-axis for --plot",
    )
    parser.add_argument(
        "--replicate",
        type=int,
        metavar="N",
        help="run each experiment N times with distinct seeds and report "
        "mean/std series",
    )
    parser.add_argument(
        "--save",
        metavar="PATH",
        help="also save each result (extension picks csv/json/md/txt; "
        "the experiment id is appended to the stem)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="run the simulations of a policy-suite experiment (fig04-fig13, "
        "zsweep-all, ablation-speed/-alpha/-increment) on N worker processes "
        "(default: every usable CPU); resilience always uses every usable "
        "CPU; ext-*, fig14 and the tables run in-process",
    )
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")

    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        print("zsweep-all")
        return 0

    scale = SCALES[args.scale]

    def emit(name: str, result: ExperimentResult) -> None:
        """Print ``result``'s table, then its chart and save it if asked."""
        print(result.format_table())
        if args.plot:
            from repro.experiments.plotting import render_ascii_chart

            print()
            print(render_ascii_chart(result, logy=args.logy))
        if args.save:
            target = Path(args.save)
            out = target.with_name(f"{target.stem}_{name}{target.suffix}")
            result.save(out)
            print(f"[saved {out}]")

    if args.experiment == "zsweep-all":
        # Figures 4-7 from one (z x policy x figure) fan-out; the shared
        # proportional-distribution simulations run once, not twice.
        if args.replicate:
            parser.error("--replicate does not apply to zsweep-all")
        from repro.experiments.zsweep import run_figs04_07

        with Stopwatch() as stopwatch:
            results = run_figs04_07(scale=scale, jobs=args.jobs)
        for name, result in results.items():
            emit(name, result)
            print()
        print(
            f"[zsweep-all completed in {stopwatch.elapsed:.1f}s "
            f"at scale={scale.name}]"
        )
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {unknown}; try 'list'")

    for name in names:
        runner = EXPERIMENTS[name]
        parameters = inspect.signature(runner).parameters
        supports_scale = "scale" in parameters
        kwargs = {}
        if args.jobs is not None and "jobs" in parameters:
            kwargs["jobs"] = args.jobs
        with Stopwatch() as stopwatch:
            if args.replicate and supports_scale:
                from repro.experiments.replication import replicate

                seeds = tuple(scale.seed + 10 * k for k in range(args.replicate))
                result = replicate(runner, scale, seeds=seeds, **kwargs)
            elif supports_scale:
                result = runner(scale=scale, **kwargs)
            else:
                result = runner()
        emit(name, result)
        print(f"[{name} completed in {stopwatch.elapsed:.1f}s at scale={scale.name}]")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
