"""Compare two ``run.py --out`` files: ``python bench/compare.py A.json B.json``.

One row per (end-to-end metric, workload) with A's and B's value (the
median over the file's runs of that workload), the bound and a verdict:

* ``ok`` — B is not worse than A by more than the bound;
* ``worse`` — it is; the exit code is then 1;
* ``unresolved: host drift`` — a timing whose two runs cannot be set
  against each other, because ``harness.calib_ms`` differs by more than
  a tenth between the files or a run marked itself invalid.

Runs of the same workload and seed must also agree exactly on the counts
that are a pure function of the seed (``fingerprint``).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DRIFT = 0.10
TIME_UNITS = ("s", "ms", "us")

#: Workload-specific end-to-end metrics: (relative bound, absolute floor).
#: B is worse when it exceeds A by more than both.
OWN = {
    "plan_ms_p50": (0.25, 0.0),
    "query_eval_ms_p50": (0.10, 0.0),
    "ingest_ms_p90": (0.25, 0.0),
    "containment_err": (0.01, 0.0),
    "svc_cpu_us_per_report": (0.10, 0.0),
    "queue_drop_frac": (0.10, 0.005),
    "slo_miss_frac": (0.0, 0.01),
    "failed_ops": (0.0, 0.0),
}


def load(path: str) -> dict[str, list[dict]]:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("quick"):
        sys.exit(f"{path} is a --quick run; quick runs are never compared")
    runs = defaultdict(list)
    for run in doc["runs"]:
        runs[run["workload"]].append(run)
    return runs


def median_of(runs: list[dict], name: str) -> tuple[float | None, str]:
    found = [r["metrics"][name] for r in runs if r["metrics"].get(name, {}).get("n")]
    values = [m["value"] for m in found if m["value"] is not None]
    return (statistics.median(values), found[0]["unit"]) if values else (None, "")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.split("\n")[0])
    a_runs, b_runs = load(argv[0]), load(argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]
    bounds = {m["name"]: (m["bound"], 0.0) for m in declared}
    bounds.update(OWN)

    worse = 0
    print(f"{'workload':<14} {'metric':<24} {'A':>12} {'B':>12} {'unit':<6} {'bound':>7}  verdict")
    for workload in a_runs:
        if workload not in b_runs:
            continue
        a, b = a_runs[workload], b_runs[workload]
        calib_a, _ = median_of(a, "harness.calib_ms")
        calib_b, _ = median_of(b, "harness.calib_ms")
        drift = abs(calib_b / calib_a - 1.0) > DRIFT or any(r["invalid"] for r in a + b)
        for name, (rel, floor) in bounds.items():
            va, unit = median_of(a, name)
            vb, _ = median_of(b, name)
            if va is None or vb is None:
                continue
            if unit in TIME_UNITS and drift:
                verdict = "unresolved: host drift"
            elif vb - va > max(rel * abs(va), floor):
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"{workload:<14} {name:<24} {va:>12.5g} {vb:>12.5g} {unit:<6} "
                  f"{max(rel, floor):>7}  {verdict}")
        # A run the host cut short did other work: nothing to hold it to.
        prints = {r["seed"]: r["fingerprint"] for r in a if r["fingerprint"].get("complete", True)}
        for run in b:
            if not run["fingerprint"].get("complete", True):
                continue
            if run["seed"] in prints and prints[run["seed"]] != run["fingerprint"]:
                worse += 1
                print(f"{workload:<14} fingerprint at seed {run['seed']} differs: worse\n"
                      f"    A {prints[run['seed']]}\n    B {run['fingerprint']}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
