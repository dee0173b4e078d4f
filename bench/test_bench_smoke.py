"""Smoke test of the benchmark itself: ``pytest bench -q`` (about a minute).

Not part of the tier-1 suite (``testpaths`` is ``tests``).  Runs every
workload once with ``--quick`` in both passes and checks the shape of
what comes out, never the numbers.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
DECLARED = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--quick", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def quick() -> dict[str, dict]:
    out = os.path.join(BENCH_DIR, "out", "smoke.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    proc = run_bench("--traced", "--out", out)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out) as fh:
        return {run["workload"]: run for run in json.load(fh)["runs"]}


def test_benchmark_json_is_well_formed() -> None:
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = WORKLOADS + [m["name"] for m in DECLARED]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCHMARK["per_layer"])


def test_every_workload_emits_every_declared_metric(quick: dict) -> None:
    assert sorted(quick) == sorted(WORKLOADS)
    for workload, run in quick.items():
        assert run["failed"] == 0, (workload, run["failures"])
        for name, metric in run["metrics"].items():
            assert NAME.match(name), name
            assert isinstance(metric["n"], int), (workload, name)
        for spec in DECLARED:
            metric = run["metrics"].get(spec["name"])
            assert metric is not None, (workload, spec["name"])
            assert metric["unit"] == spec["unit"], (workload, spec["name"])
            assert metric["value"] is not None, (workload, spec["name"])
        for spec in BENCHMARK["end_to_end"]:
            assert run["metrics"][spec["name"]]["value"] > 0, (workload, spec["name"])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_is_exactly_the_declared_metrics(trace: str, section: str) -> None:
    proc = run_bench("--workload", "adapt-drift", "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[section]]
