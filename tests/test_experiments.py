"""Tests for the experiment harness (registry, runner, tiny end-to-end runs)."""

import importlib.util
import re
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS, ExperimentScale, run_table1
from repro.experiments.base import ExperimentResult
from repro.experiments.__main__ import main as experiments_main

#: A micro scale so that experiment smoke tests stay fast.
MICRO = ExperimentScale(
    name="micro",
    n_nodes=250,
    duration=200.0,
    dt=10.0,
    side_meters=3000.0,
    collector_spacing=500.0,
    l=13,
    alpha=32,
    reduction_samples=6,
    adapt_every=10,
    seed=3,
)

REPO = Path(__file__).resolve().parents[1]

#: EXPERIMENTS.md sections written by hand, not by the generator.
HAND_WRITTEN_SECTIONS = {"overload-slo"}


class TestExperimentResult:
    def test_series_length_validated(self):
        result = ExperimentResult("x", "t", "x", [1.0, 2.0])
        with pytest.raises(ValueError):
            result.add_series("bad", [1.0])

    def test_get_series(self):
        result = ExperimentResult("x", "t", "x", [1.0])
        result.add_series("a", [2.0])
        assert result.get_series("a").y == [2.0]
        with pytest.raises(KeyError):
            result.get_series("missing")

    def test_format_table_contains_data(self):
        result = ExperimentResult("fig99", "demo", "x", [1.0, 2.0])
        result.add_series("y", [0.5, 0.25])
        text = result.format_table()
        assert "fig99" in text and "0.5" in text and "0.25" in text


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        for expected in (
            "fig01", "table1", "fig03", "fig04", "fig05", "fig06", "fig07",
            "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
            "table3",
        ):
            assert expected in EXPERIMENTS

    def test_ablations_present(self):
        assert "ablation-speed" in EXPERIMENTS
        assert "ablation-alpha" in EXPERIMENTS

    def test_extensions_present(self):
        """Each kept extension tests a sentence of the paper."""
        extensions = {name for name in EXPERIMENTS if name.startswith("ext-")}
        assert extensions == {"ext-snapshot", "ext-sampling", "ext-adaptivity", "ext-safe-region"}


class TestReportMatchesRegistry:
    """EXPERIMENTS.md and its generator name registered experiments only.

    The generator replaces sections where they stand and never removes
    one, so the section of an experiment that left the registry stays
    until it is deleted by hand.
    """

    def test_paper_claims_name_registered_experiments(self):
        path = REPO / "scripts" / "generate_experiments_report.py"
        spec = importlib.util.spec_from_file_location("generate_experiments_report", path)
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        assert sorted(generator.PAPER_CLAIMS.keys() - EXPERIMENTS.keys()) == []

    def test_report_sections_name_registered_experiments(self):
        report = (REPO / "EXPERIMENTS.md").read_text()
        headings = set(re.findall(r"^## ([\w-]+):", report, re.M))
        assert sorted(headings - EXPERIMENTS.keys() - HAND_WRITTEN_SECTIONS) == []
        assert HAND_WRITTEN_SECTIONS <= headings


class TestTable1:
    def test_preference_ordering(self):
        result = run_table1()
        deltas = result.get_series("delta_i (m)").y
        low_low, low_high, high_low, high_high = deltas
        assert high_low >= high_high >= low_low >= low_high


def _assert_degrades_monotonically_with_uplink_loss(n_shards):
    from repro.experiments.common import SMALL
    from repro.experiments.resilience import run_resilience

    result = run_resilience(SMALL, n_shards=n_shards)
    for peak_queue_fraction in result.get_series("lira peak queue").y:
        assert 0.0 <= peak_queue_fraction <= 1.0
    errors = result.get_series("lira E_rr^C").y
    assert errors == sorted(errors)


def _bounded_deployment(**keywords):
    """The resilience experiment's deployment at :data:`MICRO`."""
    from repro.experiments.resilience import QUEUE_CAPACITY, SERVICE_FRACTION
    from repro.sim import Deployment

    return Deployment(
        service_rate=SERVICE_FRACTION * MICRO.n_nodes / MICRO.dt,
        queue_capacity=QUEUE_CAPACITY,
        station_radius=MICRO.side_meters / 4.0,
        **keywords,
    )


class TestMicroRuns:
    """End-to-end smoke of representative experiments at micro scale."""

    def test_fig01_shape(self):
        from repro.experiments import run_fig01

        result = run_fig01(scale=MICRO, n_samples=6)
        empirical = result.get_series("f empirical").y
        assert empirical[0] == pytest.approx(1.0)
        assert all(a >= b - 1e-9 for a, b in zip(empirical, empirical[1:]))

    def test_fig03_counts_sum_to_l(self):
        from repro.experiments import run_fig03

        result = run_fig03(scale=MICRO)
        counts = result.get_series("regions at level").y
        assert sum(counts) == 13

    def test_fig14_alpha_dominates_at_small_l(self):
        from repro.experiments import run_fig14

        result = run_fig14(scale=MICRO, ls=(4, 13), alphas=(16, 512), repeats=3)
        small_alpha = result.get_series("alpha=16").y
        big_alpha = result.get_series("alpha=512").y
        # A much bigger statistics grid must cost more at equal l (the
        # alpha^2 Stage-I term); a 32x cell-count gap dominates timing noise.
        assert big_alpha[0] > small_alpha[0]

    def test_table3_monotone_in_radius(self):
        from repro.experiments import run_table3

        result = run_table3(scale=MICRO, radii_km=(0.5, 1.5))
        regions = result.get_series("regions per station").y
        assert regions[1] > regions[0]

    def test_resilience_registered(self):
        assert "resilience" in EXPERIMENTS

    def test_resilience_lira_beats_random_drop_and_degrades_smoothly(self):
        from repro.experiments.resilience import run_resilience

        result = run_resilience(scale=MICRO)
        lira = result.get_series("lira E_rr^C").y
        drop = result.get_series("random-drop E_rr^C").y
        # Under overload at lossless conditions LIRA is far more accurate.
        assert lira[0] < drop[0]
        # A lossy uplink never crashes the loop; errors stay finite and
        # the queue stays bounded.  (Monotone degradation is the next
        # test's claim, at small scale, where overload persists across
        # the loss range — at micro scale loss can relieve overload
        # enough to offset the staleness it causes.)
        assert all(0.0 <= e < 1.0 for e in lira)
        peak = result.get_series("lira peak queue").y
        assert all(0.0 <= p <= 1.0 for p in peak)

    def test_resilience_degrades_monotonically_with_uplink_loss(self):
        _assert_degrades_monotonically_with_uplink_loss(n_shards=1)

    def test_resilience_degrades_monotonically_with_uplink_loss_at_four_shards(self):
        """The same at K = 4, per-shard μ (0.004 / 0.015 / 0.070 / 0.253;
        K = 2 is not monotone there and is not gated).

        This checks that plan staleness on the fault path grows with
        loss, not shedding: Σμ = 4 × 0.35 = 1.4× the full-reporting load,
        so both policies read z = 1.0 with no queue or admission drop and
        a peak queue of 0, and their E_rr^C are bit-equal.  K = 2 does
        shed (LIRA: 84 queue drops at z = 0.962); a K > 1 shedding gate
        waits for a balanced station map."""
        _assert_degrades_monotonically_with_uplink_loss(n_shards=4)

    def test_resilience_runs_reproducible(self):
        from repro.experiments.runner import SimJob
        from repro.faults import FaultSpec

        deployment = _bounded_deployment(faults=FaultSpec(uplink_loss=0.25, downlink_loss=0.2))
        job = SimJob(MICRO, "lira", None, MICRO.lira_config(), deployment=deployment)
        a, b = job.run(), job.run()
        assert a.stats == b.stats
        assert a.mean_containment_error == b.mean_containment_error

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_containment_per_tick_matches_the_system_query_path(self, n_shards):
        """On a bounded, lossy deployment, the kernel's per-tick E_rr^C
        equals the system's own query answers scored by ``repro.metrics``
        on every tick."""
        import numpy as np

        from repro.faults import FaultSpec
        from repro.sim import Simulation, SimulationConfig
        from tests.oracles.measurement import system_containment_per_tick

        deployment = _bounded_deployment(faults=FaultSpec(uplink_loss=0.2), n_shards=n_shards)
        config = SimulationConfig(z=None, adapt_every=MICRO.adapt_every, seed=MICRO.seed)

        def simulation():
            return Simulation(MICRO.scenario(), "lira", MICRO.lira_config(), config, deployment)

        got = simulation().run().containment_per_tick
        want = system_containment_per_tick(simulation())
        assert np.isfinite(got[config.warmup_ticks :]).all()
        np.testing.assert_array_equal(got, want)

    def test_zsweep_policy_ordering(self):
        from repro.experiments.zsweep import run_zsweep
        from repro.queries import QueryDistribution

        result = run_zsweep(
            "mean_position_error",
            QueryDistribution.PROPORTIONAL,
            scale=MICRO,
            zs=(0.5,),
        )
        lira = result.get_series("lira abs").y[0]
        uniform = result.get_series("uniform abs").y[0]
        drop = result.get_series("random-drop abs").y[0]
        assert lira < uniform < drop


class TestCli:
    def test_list(self, capsys):
        assert experiments_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig04" in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            experiments_main(["nope"])

    def test_run_table1(self, capsys):
        assert experiments_main(["table1", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out


class TestExports:
    def _result(self):
        result = ExperimentResult("fig99", "demo", "x", [1.0, 2.0])
        result.add_series("y1", [0.5, 0.25])
        result.add_series("y2", [3.0, 4.0])
        return result

    def test_csv_roundtrip(self):
        import csv
        import io

        rows = list(csv.reader(io.StringIO(self._result().to_csv())))
        assert rows[0] == ["x", "y1", "y2"]
        assert [float(v) for v in rows[1]] == [1.0, 0.5, 3.0]

    def test_json_structure(self):
        import json

        doc = json.loads(self._result().to_json())
        assert doc["experiment_id"] == "fig99"
        assert doc["series"][1]["y"] == [3.0, 4.0]

    def test_markdown_table(self):
        md = self._result().to_markdown()
        assert md.startswith("| x | y1 | y2 |")
        assert "| 2 | 0.25 | 4 |" in md

    def test_save_by_extension(self, tmp_path):
        result = self._result()
        for ext in (".csv", ".json", ".md", ".txt"):
            path = tmp_path / f"out{ext}"
            result.save(path)
            assert path.read_text().strip()
        with pytest.raises(ValueError):
            result.save(tmp_path / "out.xlsx")


class TestExtensionMicroRuns:
    """Extension experiments exercised end to end at micro scale."""

    def test_ext_snapshot_directions(self):
        from repro.experiments import run_ext_snapshot

        result = run_ext_snapshot(
            scale=MICRO, fairness_values=(0.0, 95.0), z=0.5
        )
        cq = result.get_series("CQ E_rr^P (m)").y
        snap = result.get_series("snapshot E_rr^P (m)").y
        assert cq[1] <= cq[0] + 1e-9
        assert snap[1] >= snap[0] - 1e-9

    def test_ext_adaptivity_direction(self):
        from repro.experiments import run_ext_adaptivity

        result = run_ext_adaptivity(scale=MICRO, z=0.5)
        re_adapt = result.get_series("re-adapting E_rr^C").y
        one_shot = result.get_series("one-shot E_rr^C").y
        assert one_shot[1] >= re_adapt[1] * 0.9  # direction (noise-tolerant)

    def test_ext_sampling_graceful(self):
        from repro.experiments import run_ext_sampling

        result = run_ext_sampling(scale=MICRO, sampling_rates=(1.0, 0.1), z=0.5)
        errors = result.get_series("E_rr^C").y
        assert errors[1] <= 3.0 * errors[0] + 1e-3

    def test_ext_safe_region_runs(self):
        from repro.experiments import run_ext_safe_region

        result = run_ext_safe_region(scale=MICRO, zs=(0.5,))
        assert result.get_series("safe-region updates").y[0] > 0


class TestReplication:
    def test_aggregates_mean_and_std(self):
        from repro.experiments import replicate, run_fig01

        result = replicate(run_fig01, MICRO, seeds=(3, 5), n_samples=6)
        names = [s.name for s in result.series]
        assert "f empirical (mean)" in names
        assert "f empirical (std)" in names
        mean = result.get_series("f empirical (mean)").y
        assert mean[0] == pytest.approx(1.0)  # both replicas normalized
        std = result.get_series("f empirical (std)").y
        assert std[0] == pytest.approx(0.0)  # exactly 1.0 in every replica
        assert "seeds: [3, 5]" in result.notes

    def test_requires_seeds(self):
        from repro.experiments import replicate, run_fig01

        with pytest.raises(ValueError):
            replicate(run_fig01, MICRO, seeds=())

    def test_ablation_increment_registered(self):
        assert "ablation-increment" in EXPERIMENTS

    def test_ablation_increment_micro(self):
        from repro.experiments import run_ablation_increment

        result = run_ablation_increment(scale=MICRO, increments=(1.0, 20.0))
        errors = result.get_series("E_rr^C").y
        # Coarse increments must not be catastrophically worse.
        assert errors[1] <= 5.0 * errors[0] + 0.01


class TestExperimentScale:
    def test_scenario_cached_per_scale(self):
        a = MICRO.scenario()
        b = MICRO.scenario()
        assert a is b

    def test_lira_config_from_scale(self):
        config = MICRO.lira_config()
        assert config.l == MICRO.l
        assert config.alpha == MICRO.alpha
        override = MICRO.lira_config(fairness=None, z=0.7)
        assert override.fairness is None
        assert override.z == 0.7
        assert override.l == MICRO.l

    def test_scale_presets_registered(self):
        from repro.experiments import SCALES

        assert set(SCALES) == {"small", "medium", "full"}


class TestCliReplicate:
    def test_replicate_flag(self, capsys):
        assert experiments_main(
            ["fig01", "--scale", "small", "--replicate", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "(mean over 2 seeds)" in out
        assert "f empirical (std)" in out

    def test_replicate_forwards_jobs(self, monkeypatch, capsys):
        calls = []

        def runner(scale, jobs=None):
            calls.append(jobs)
            result = ExperimentResult("fake", "fake", "x", [1.0])
            result.add_series("y", [float(scale.seed)])
            return result

        monkeypatch.setitem(EXPERIMENTS, "fake", runner)
        assert experiments_main(
            ["fake", "--scale", "small", "--replicate", "2", "--jobs", "3"]
        ) == 0
        assert calls == [3, 3]
        assert "(mean over 2 seeds)" in capsys.readouterr().out

    def test_zsweep_all_rejects_replicate(self):
        with pytest.raises(SystemExit):
            experiments_main(["zsweep-all", "--replicate", "2"])


class TestCliZsweepAll:
    def test_save_and_plot(self, monkeypatch, tmp_path, capsys):
        from repro.experiments import zsweep

        def run_figs04_07(scale, jobs=None):
            results = {}
            for fig_id in ("fig04", "fig05"):
                result = ExperimentResult(fig_id, fig_id, "z", [0.5, 0.9])
                result.add_series("lira abs", [1.0, 2.0])
                results[fig_id] = result
            return results

        monkeypatch.setattr(zsweep, "run_figs04_07", run_figs04_07)
        target = tmp_path / "out.csv"
        assert experiments_main(
            ["zsweep-all", "--scale", "small", "--save", str(target), "--plot"]
        ) == 0
        assert (tmp_path / "out_fig04.csv").read_text().startswith("z,lira abs")
        assert (tmp_path / "out_fig05.csv").exists()
        out = capsys.readouterr().out
        assert out.count("[saved ") == 2
        assert "zsweep-all completed" in out
