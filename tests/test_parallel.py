"""The shared CPU count and the thread-level overlap of ``repro.parallel``."""

import threading

import numpy as np
import pytest

import repro.parallel as parallel
from repro.parallel import pool_is_profitable, run_beside, usable_cpus


@pytest.mark.parametrize(
    "files, quota",
    [
        ({}, float("inf")),
        ({"cpu.max": "max 100000\n"}, float("inf")),
        ({"cpu.max": "150000 100000\n"}, 1.5),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, float("inf")),
        ({"cpu/cpu.cfs_quota_us": "50000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 0.5),
    ],
)
def test_cgroup_quota_reads_v2_then_v1(tmp_path, files, quota):
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
    assert parallel._cgroup_cpu_quota(str(tmp_path)) == quota


@pytest.mark.parametrize("quota, cap", [(0.5, 1), (1.0, 1), (1.5, 2), (float("inf"), None)])
def test_every_seam_counts_cpus_under_the_quota(monkeypatch, quota, cap):
    unlimited = usable_cpus()
    monkeypatch.setattr(parallel, "_cgroup_cpu_quota", lambda: quota)
    cpus = unlimited if cap is None else min(unlimited, cap)
    assert usable_cpus() == cpus
    assert pool_is_profitable(4, 4) == (cpus > 1)


def test_no_overlap_runs_main_then_side_on_the_callers_thread():
    calls = []

    def main():
        calls.append(("main", threading.get_ident()))
        return "m"

    def side():
        calls.append(("side", threading.get_ident()))
        return "s"

    assert run_beside(side, main, overlap=False) == ("m", "s")
    assert calls == [("main", threading.get_ident()), ("side", threading.get_ident())]


@pytest.mark.skipif(usable_cpus() < 2, reason="one usable CPU starts no thread")
def test_helper_runs_under_the_callers_errstate():
    """Every ``np.errstate`` setting the caller holds is the helper's too,
    whether numpy keeps it per thread (1.x) or per context (2.x)."""
    with np.errstate(over="raise", under="ignore", divide="warn", invalid="print"):
        wanted = np.geterr()
        main, side = run_beside(np.geterr, lambda: threading.get_ident())
    assert main == threading.get_ident()
    assert side == wanted
