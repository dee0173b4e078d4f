"""The repo benchmark: one command, five workloads.

::

    python bench/run.py                       # every workload, untraced
    python bench/run.py --traced --out r.json # both passes + trace overhead
    python bench/run.py --workload svc-firehose --seed 3 --seconds 15 --trace 1

Each workload prints every metric by name with its unit and sample
count, then one JSON line with the metrics ``BENCHMARK.json`` declares
(``end_to_end`` for an untraced pass, ``per_layer`` for ``--trace 1``).
README.md says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(1, os.path.join(ROOT, "src"))

import inproc  # noqa: E402
import svc  # noqa: E402
from harness import Report  # noqa: E402
from sender import OUT_DIR  # noqa: E402
from spans import write_chrome_trace  # noqa: E402

RUNNERS = {**{name: inproc.run for name in inproc.SCENES},
           **{name: svc.run for name in svc.TRAFFIC}}
QUICK_SECONDS = 2.0


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_passes(workload: str, seed: int, seconds: float, trace: str, quick: bool) -> Report:
    """One workload at one seed; ``trace`` is ``0``, ``1`` or ``both``.

    End-to-end numbers always come from an untraced pass.  ``both`` adds
    the traced pass's per-layer numbers to it and reports how much the
    tracing cost.
    """
    runner = RUNNERS[workload]
    report = None
    if trace in ("0", "both"):
        report = runner(workload, seed, seconds, False, quick)
    if trace in ("1", "both"):
        traced = runner(workload, seed, seconds, True, quick)
        os.makedirs(OUT_DIR, exist_ok=True)
        write_chrome_trace(os.path.join(OUT_DIR, f"trace-{workload}.json"), traced.trace_spans)
        if report is None:
            return traced
        for name, key in (("harness.trace_overhead_frac", "op_ms_p50"),
                          ("harness.trace_overhead_frac_plan", "plan_ms_p50")):
            overhead = traced.metrics[key]["value"] / report.metrics[key]["value"] - 1.0
            report.put(name, overhead, "ratio")
        for name, metric in traced.metrics.items():
            if name.startswith("harness.traced_") or report.metrics.get(name, {}).get("value") is None:
                report.metrics[name] = metric
        report.layer_rows = traced.layer_rows
        report.failures += traced.failures
        report.invalid += traced.invalid
    return report


def print_report(report: Report) -> None:
    print(f"== {report.workload}  seed={report.seed}  traced={report.traced}")
    for name, m in report.metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<40} {value:>14} {m['unit']:<6} n={m['n']}")
    if report.layer_rows:
        print(f"  {'layer':<24} {'calls':>8} {'self ms':>12} {'ms/parent op':>13} "
              f"{'share':>8}  parent")
        for row in report.layer_rows:
            per_op = "-" if row["per_op_ms"] is None else f"{row['per_op_ms']:.4f}"
            share = "null" if row["share"] is None else f"{row['share']:.4f}"
            print(f"  {row['layer']:<24} {row['calls']:>8} {row['self_ms']:>12.2f} "
                  f"{per_op:>13} {share:>8}  {row['parent'] or '-'}")
    for failure in report.failures:
        print(f"  FAILED: {failure}")
    for reason in report.invalid:
        print(f"  INVALID (do not compare): {reason}")


def contract_line(report: Report, declared: list[dict]) -> str:
    """The one JSON object the driver reads: the declared metrics, no others."""
    metrics = {}
    for spec in declared:
        emitted = report.metrics[spec["name"]]
        if emitted["unit"] != spec["unit"]:
            raise RuntimeError(f"{spec['name']}: unit {emitted['unit']} != {spec['unit']}")
        value = emitted["value"]
        if value is None:
            print(f"WARNING: {spec['name']} is null (seam gone); printing 0", file=sys.stderr)
            value = 0.0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return json.dumps({
        "correct": not report.failures,
        "attempted": report.attempted,
        "failed": len(report.failures),
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, action="append",
                        help="run only this workload (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]),
                        help="length of the measured part of one pass")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--traced", action="store_const", const="both", dest="trace",
                        help="same as --trace both")
    parser.add_argument("--quick", action="store_true",
                        help="shrunk smoke run; its numbers are never compared")
    parser.add_argument("--out", help="write every report of this invocation as JSON")
    args = parser.parse_args(argv)
    seconds = QUICK_SECONDS if args.quick else args.seconds

    reports = []
    for workload in args.workload or names:
        for seed in args.seed:
            report = run_passes(workload, seed, seconds, args.trace, args.quick)
            reports.append(report)
            print_report(report)
            declared = benchmark["per_layer" if args.trace == "1" else "end_to_end"]
            print(contract_line(report, declared), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"quick": args.quick, "seconds": seconds,
                       "runs": [r.to_dict() for r in reports]}, fh, indent=1)
    return 1 if any(r.failures for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
