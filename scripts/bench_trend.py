#!/usr/bin/env python
"""Cross-schema perf trend gate: current bench report vs its predecessor.

``bench_report.py``'s in-run regression checks compare a fresh
measurement against the *same* committed file — they catch a PR that
slows the code it re-measures.  What they cannot catch is drift across
report generations: each PR records a new ``BENCH_<n>.json`` (new
schema, new sections), and a slowdown hiding in the newly recorded
numbers would silently become the next baseline.  This gate closes
that hole by comparing every tracked metric across the two committed
reports and failing if any slowed beyond the tolerance.

**Why paired ratios, not raw medians.**  The two reports are recorded
in different sessions on a shared container whose absolute speed is
not stable: between ``BENCH_7.json`` and ``BENCH_8.json`` the
*unoptimized reference paths this repo never touches* drifted by
×0.9–×1.7 (pytest-benchmark micro medians inflated ~45% even on an
idle machine; subprocess-level best-of numbers swung ±45% run to
run), so a 25% gate on raw medians would be permanently red on pure
environment noise.  Each tracked metric is therefore normalized by a
reference metric *measured in the same pass with the same machinery*
(the bruteforce / unsharded / no-injector counterpart the bench already
records): machine state cancels, and the gated quantity is
"how much faster is the optimized path than its reference" — the
thing each PR actually promised.  Re-measured across recordings,
these pairs hold within a few percent while the raw medians swing
tens of percent.

A metric missing on either side is reported and skipped — schemas
evolve — but if *nothing* could be compared the gate fails, because
that means the tracked list rotted.

Usage::

    PYTHONPATH=src python scripts/bench_trend.py \
        [--baseline BENCH_9.json] [--current BENCH_10.json] \
        [--tolerance 0.25]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Allowed growth of any tracked cost ratio before the gate fails.
#: Matches ``bench_report.REGRESSION_TOLERANCE``: cross-recording
#: noise on the paired ratios is a few percent, a real regression in
#: an optimized path is far larger.
TOLERANCE = 0.25

#: (label, metric path, reference path) — dotted paths into the report
#: JSON.  The gated quantity is metric/reference (cost of the
#: optimized path relative to its same-pass unoptimized counterpart;
#: lower is better).  The incremental-adapt speedup is deliberately not
#: here: its reference (the full vector recompute) is itself an
#: optimized path, so this gate would punish making it faster — that
#: contract is counted instead (``bench_report.MEMO_ROWS_FLOOR``).
TRACKED: tuple[tuple[str, str, str], ...] = (
    (
        "sim measurement tick (kernel / bruteforce)",
        "median_ns.sim_measurement_tick_kernel",
        "median_ns.sim_measurement_tick_bruteforce",
    ),
    (
        "query eval (kernel / bruteforce)",
        "median_ns.kernel_eval",
        "median_ns.bruteforce_eval",
    ),
    (
        "sharded tick N=100k (K=4 per shard / unsharded)",
        "sharding.gate.k4.per_shard_tick_s",
        "sharding.gate.lira_system_tick_s",
    ),
    (
        "fault seam (null injector / no injector)",
        "fault_injection.null_injector.median_s",
        "fault_injection.no_injector.median_s",
    ),
)


#: Ratios a recording re-bases, by the schema of the *current* report:
#: label -> why the step from its predecessor is not a regression of
#: the tracked path.  Reported with the reason, never failed; the next
#: recording gates them again against the re-based value.
REBASED: dict[str, dict[str, str]] = {
    "lira-bench/9": {
        "sharded tick N=100k (K=4 per shard / unsharded)": (
            "PR 12 made the unsharded reference 3.4x faster (56.6 -> 16.8 ms) "
            "and the K=4 shard tick 1.7x faster (17.0 -> 10.1 ms)"
        ),
    },
    "lira-bench/10": {
        "query eval (kernel / bruteforce)": (
            "host drift on a 30 us median, no change under repro.queries: "
            "the parent commit measures 0.645-0.894 on the recording host "
            "(2 alternated runs each side, this commit 0.634-0.639)"
        ),
    },
}


def lookup(report: dict, dotted: str) -> float | None:
    node = report
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def _ratio(report: dict, metric: str, ref: str) -> float | None:
    numerator = lookup(report, metric)
    denominator = lookup(report, ref)
    if numerator is None or denominator is None or denominator <= 0.0:
        return None
    return numerator / denominator


def compare(baseline: dict, current: dict, tolerance: float) -> int:
    compared = 0
    failures: list[str] = []
    rebased = REBASED.get(str(current.get("schema")), {})
    for label, metric, ref in TRACKED:
        old = _ratio(baseline, metric, ref)
        new = _ratio(current, metric, ref)
        if old is None or new is None or old <= 0.0:
            print(f"  skip  {label}: missing on one side")
            continue
        change = new / old - 1.0
        if change > tolerance and label in rebased:
            print(f"  base  {label}: {old:.4f} -> {new:.4f} ({change:+.1%})")
            print(f"        re-based, not gated: {rebased[label]}")
            continue
        compared += 1
        mark = "ok" if change <= tolerance else "FAIL"
        print(f"  {mark:4}  {label}: {old:.4f} -> {new:.4f} ({change:+.1%})")
        if change > tolerance:
            failures.append(
                f"{label} cost ratio grew {change:.1%} "
                f"({old:.4f} -> {new:.4f}, tolerance {tolerance:.0%})"
            )
    if compared == 0:
        print("bench_trend: no tracked metric exists in both reports")
        return 1
    if failures:
        print(f"bench_trend: {len(failures)} tracked ratio(s) regressed:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"bench_trend: {compared} tracked ratios within {tolerance:.0%}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default=str(REPO / "BENCH_9.json"))
    parser.add_argument("--current", default=str(REPO / "BENCH_10.json"))
    parser.add_argument("--tolerance", type=float, default=TOLERANCE)
    args = parser.parse_args(argv)
    baseline = json.loads(Path(args.baseline).read_text())
    current = json.loads(Path(args.current).read_text())
    print(
        f"bench_trend: {Path(args.baseline).name} "
        f"({baseline.get('schema')}) -> {Path(args.current).name} "
        f"({current.get('schema')})"
    )
    return compare(baseline, current, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
