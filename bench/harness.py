"""Measurement helpers shared by every workload."""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.timing import wall_time_samples

from layers import LAYERS
from spans import SpanSummary

#: How many times a run sets the system up; ``setup_s`` is their median.
#: Spawning a service takes about a second, building a system in-process
#: a tenth of that, so the latter is repeated more often.
SETUPS_SERVICE = 3
SETUPS_INPROC = 9

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Per-layer metrics only one family of workloads can measure; the other
#: family reports them as 0 with a sample count of 0, because every run
#: prints every declared per-layer metric.
SERVICE_ONLY = {
    "service.wire_in_share": "ratio",
    "service.queue_wait_share": "ratio",
    "service.ack_return_share": "ratio",
    "service.delta_push_frac": "ratio",
    "service.plan_pushes_skipped": "count",
    "service.plan_frames_encoded": "count",
    "service.slo_miss_frac": "ratio",
    "loadtest.late_frac": "ratio",
    "framing.ingest_frame_bytes": "B",
    "framing.delta_frame_bytes": "B",
}
INPROC_ONLY = {
    "containment_err": "ratio",
    "node_engine.handoffs": "count",
    "protocol.stations_delivered": "count",
}


@dataclass
class Report:
    """Everything one pass over one workload measured.

    ``metrics`` maps a name to ``{"value", "unit", "n"}`` (``n`` is the
    sample count behind the value); ``failures`` lists correctness-check
    violations; ``invalid`` lists reasons the run cannot be compared
    (generator too late or too busy); ``fingerprint`` holds the counts
    that must repeat exactly at the same seed.
    """

    workload: str
    seed: int
    traced: bool
    metrics: dict[str, dict] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    invalid: list[str] = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    layer_rows: list[dict] = field(default_factory=list)
    #: Raw spans of a traced pass, for the Chrome trace file.
    trace_spans: list = field(default_factory=list)
    attempted: int = 0

    def put(self, name: str, value: float | None, unit: str, n: int = 1) -> None:
        self.metrics[name] = {"value": value, "unit": unit, "n": n}

    def alias(self, name: str, existing: str) -> None:
        """The workload's own name for one of the common metrics."""
        self.metrics[name] = self.metrics[existing]

    def put_harness(self, calib: Sequence[float], inputgen_s: float, not_applicable: dict) -> None:
        """What every pass reports about itself, whatever the workload."""
        self.put("failed_ops", len(self.failures), "count")
        self.put("harness.calib_ms", statistics.median(calib), "ms", len(calib))
        self.put("harness.calib_drift", calib[-1] / calib[0], "ratio")
        self.put("harness.inputgen_s", inputgen_s, "s")
        self.alias("harness.traced_op_ms_p50", "op_ms_p50")
        self.alias("harness.traced_op_ms_p90", "op_ms_p90")
        self.alias("harness.traced_plan_ms_p50", "plan_ms_p50")
        for name, unit in not_applicable.items():
            self.put(name, 0.0, unit, 0)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "traced": self.traced,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
            "invalid": self.invalid,
            "fingerprint": self.fingerprint,
            "metrics": self.metrics,
            "layer_rows": self.layer_rows,
        }


def ms(seconds: Sequence[float]) -> list[float]:
    return [s * 1e3 for s in seconds]


def nearest_rank(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quiet_p90(times: Sequence[float], values: Sequence[float], segments: int = 5) -> float:
    """The lowest nearest-rank p90 among equal time segments of the window.

    A stall of the host only ever adds time, and on a shared host it can
    last seconds, so a pooled p90 mostly measures the neighbours.  A tail
    the program itself causes (a periodic rebuild, a queue that fills)
    shows in every segment and so survives taking the quietest one.
    """
    lo, hi = min(times), max(times)
    width = (hi - lo) / segments or 1.0
    buckets: list[list[float]] = [[] for _ in range(segments)]
    for t, v in zip(times, values):
        buckets[min(segments - 1, int((t - lo) / width))].append(v)
    return min(nearest_rank(b, 0.9) for b in buckets if b)


class Reference:
    """A fixed numpy kernel (sort + bincount of ``size`` values) that says
    how fast this host is right now.

    The in-process workloads call it before every timed operation and
    report ``operation / reference x nominal_ms``: milliseconds at the
    speed of the reference host, on which one call takes ``nominal_ms``
    (nominal: it only fixes the scale).  This host's speed moves by a
    quarter within minutes and by half within an hour (README.md); a
    ratio of two neighbouring measurements moves a third as much.  The
    kernel is sized like the workload's working set, since cache-resident
    and memory-bound code do not slow down together.
    """

    def __init__(self, size: int, nominal_ms: float) -> None:
        self.data = np.random.default_rng(12345).integers(0, 1 << 16, size)
        self.nominal_ms = nominal_ms

    def __call__(self) -> float:
        """Seconds one call takes now."""
        return wall_time_samples(lambda: np.bincount(np.sort(self.data)), 1)[0]

    def normalise(self, seconds: Sequence[float], references: Sequence[float]) -> list[float]:
        return [s / r * self.nominal_ms for s, r in zip(seconds, references)]


REFERENCES = {"cache": Reference(65_536, 0.55), "memory": Reference(1_000_000, 11.0)}


def calibrate(repeats: int = 15) -> float:
    """Median ms of the memory-sized kernel: the host-drift canary, taken
    at the start and end of every pass."""
    reference = REFERENCES["memory"]
    return statistics.median(reference() for _ in range(repeats)) * 1e3


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark, so that each workload of an
    all-workloads invocation reports its own peak and not its predecessor's."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # read-only /proc: the mark then covers the whole process


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of another process (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set of another process (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def layer_metrics(
    report: Report, summary: SpanSummary, denominator_ns: float, missing: Sequence[str]
) -> None:
    """Turn a span summary into the per-layer share metrics and table rows.

    A layer's share is its self time over ``denominator_ns`` (the traced
    operations' total time in-process, the measured wall window for a
    service), so the shares of one process partition its time.
    """
    for layer, span_names in LAYERS.items():
        calls = sum(summary.calls.get(n, 0) for n in span_names)
        self_ns = sum(summary.self_ns.get(n, 0) for n in span_names)
        gone = any(n in missing for n in span_names)
        share = None if gone else self_ns / denominator_ns
        report.put(f"{layer}.share", share, "ratio", calls)
        leaf = span_names[0] if len(span_names) == 1 else None
        report.layer_rows.append(
            {
                "layer": layer,
                "calls": calls,
                "self_ms": self_ns / 1e6,
                "per_op_ms": summary.per_op_ms(leaf) if leaf and not gone else None,
                "parent": summary.root_of(leaf) if leaf else None,
                "share": share,
            }
        )
    children = sum(
        ns for name, ns in summary.self_ns.items() if name not in summary.root_calls
    )
    report.put(
        "harness.layer_coverage",
        children / summary.root_ns if summary.root_ns else None,
        "ratio",
        sum(summary.root_calls.values()),
    )
