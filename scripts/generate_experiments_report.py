"""Generate EXPERIMENTS.md: paper-vs-measured for every figure and table.

Runs every experiment in the registry at the requested scale, renders
each as a markdown section containing (a) what the paper reports, (b)
the regenerated data, and (c) an automatically computed summary of the
measured shape.  A section is a pure function of the scale's seed
(wall-clock timings go to stdout, never into the file) — except the
sections whose *data* are measured times (fig14 and
ablation-increment).  ``--check`` regenerates the ``--only`` sections and
fails if they differ from the ones already in ``--out``.

Usage:  python scripts/generate_experiments_report.py [--scale medium]
        python scripts/generate_experiments_report.py --scale full \
            --only fig04 fig08 --check
"""

from __future__ import annotations

import argparse
import difflib
import inspect
import re
from pathlib import Path

from repro.experiments import EXPERIMENTS, SCALES
from repro.timing import Stopwatch

#: What the paper's version of each artifact shows (the target shape).
PAPER_CLAIMS = {
    "fig01": (
        "f(Δ) falls steeply near Δ⊢ = 5 m and flattens to a linear tail "
        "approaching Δ⊣ = 100 m."
    ),
    "table1": (
        "Shedding preference by region characteristics: high-n/low-m regions "
        "are the prime shedding targets (✓), low-n/high-m must be avoided (×), "
        "and high/high is preferable to low/low (> vs <)."
    ),
    "fig03": (
        "GRIDREDUCE produces a non-uniform partitioning: small regions where "
        "nodes/queries are dense and heterogeneous, large regions kept intact "
        "where queries are absent (A×) or the area is homogeneous (A*)."
    ),
    "fig04": (
        "E_rr^P vs z, proportional queries: LIRA best everywhere. At z = 0.75 "
        "Random Drop is ~300x LIRA, Uniform Δ ~40x, Lira-Grid ~2x; at z = 0.5 "
        "they are 10x / 2x / 1.08x; relative errors → 1 as z shrinks toward "
        "the all-Δ⊣ convergence point (~0.25) and explode as z → 1."
    ),
    "fig05": "Same study as Fig 4 for the mean containment error E_rr^C; same ordering and trends.",
    "fig06": (
        "E_rr^C vs z under the Inverse query distribution: same ordering, "
        "slightly smaller relative gaps than Proportional."
    ),
    "fig07": (
        "E_rr^C vs z under the Random query distribution: same ordering, "
        "slightly smaller relative gaps than Proportional."
    ),
    "fig08": (
        "Lira-Grid has up to ~35% higher containment error than LIRA at "
        "moderate l (largest gap under Inverse queries); the gap closes as l "
        "grows and uniform partitioning reaches sufficient granularity."
    ),
    "fig09": (
        "LIRA's E_rr^C falls as l grows and then stabilizes; the reduction is "
        "more pronounced at larger z. The default l = 250 is conservative."
    ),
    "fig10": (
        "At z = 0.75, LIRA's D_ev^C *decreases* as Δ⇔ loosens and stays below "
        "Uniform Δ's; C_ov^C increases with Δ⇔ and Uniform Δ is 'more fair' "
        "relative to its own (larger) mean error."
    ),
    "fig11": (
        "E_rr^P vs Δ⇔ for z ∈ {0.3, 0.5, 0.7, 0.9}: marginal sensitivity at "
        "the extremes (z near the convergence point or near 1), strongest "
        "sensitivity at intermediate z."
    ),
    "fig12": (
        "Uniform Δ's relative E_rr^C vs LIRA is an order of magnitude larger "
        "at m/n = 0.01 than at m/n = 0.1; even at m/n = 0.1 LIRA keeps ~2x "
        "advantage."
    ),
    "fig13": (
        "As the query side length w grows, E_rr^P increases (larger covered "
        "area leaves less room to shed away from queries) while E_rr^C "
        "decreases (set-based error dilutes in larger result sets)."
    ),
    "fig14": (
        "Adaptation time grows with l (l·log l term) on top of an α²-driven "
        "floor; defaults (l = 250, α = 128) took ~40 ms on 2007 hardware — a "
        "~7e-5 fraction of a 10-minute adaptation period."
    ),
    "table3": (
        "Regions known per base station grow with coverage radius "
        "(3.1 at 1 km → 78.5 at 5 km); with density-dependent placement a "
        "node knows ~41 regions → 656-byte broadcast, under one 1472-byte "
        "UDP payload."
    ),
    "resilience": (
        "(Extension.) The paper evaluates a perfect network; its premise — "
        "graceful behaviour under adverse conditions — predicts how LIRA "
        "should behave on a faulty one. This sweep runs the *systems* loop "
        "(`LiraSystem`: every update through the real node → station → queue "
        "→ server path) under seeded fault injection (`repro.faults`), "
        "dropping 0–50 % of node→server update messages, and compares LIRA "
        "against the Random Drop regime (every node at Δ⊢, the server "
        "admitting a random fraction z). LIRA's error should degrade "
        "monotonically and smoothly with loss while the queue stays bounded; "
        "once the channel itself sheds the load below capacity both policies "
        "settle at z = 1 and converge to the pure channel-staleness error. "
        "`repro.faults.FaultSpec` also composes delay and reordering, lost or "
        "delayed plan broadcasts (the staleness column), transient server "
        "slowdowns and node churn, each from its own seeded RNG stream."
    ),
    "ablation-speed": (
        "(Extension — §3.1.2 ablation.) The speed-factor-corrected budget "
        "model should track z at least as well as the uncorrected one and "
        "spend the budget more effectively."
    ),
    "ablation-alpha": (
        "(Extension — §3.2.5 ablation.) Error stops improving once α reaches "
        "the sizing rule's value; finer grids change nothing."
    ),
    "ablation-increment": (
        "(Extension — Theorem 3.1 ablation.) Finer c_Δ approximates the "
        "continuous optimum more closely at O(κ·l·log l) cost; error should "
        "stay near-flat while adaptation time falls with coarser c_Δ."
    ),
    "ext-snapshot": (
        "(Extension — §3.1.1 made quantitative.) Loosening Δ⇔ lowers CQ error "
        "but raises whole-population snapshot error: the trade-off the "
        "fairness threshold navigates."
    ),
    "ext-adaptivity": (
        "(Extension.) Workload churn: with periodic re-adaptation LIRA "
        "follows a mid-trace proportional→inverse query shift; a stale "
        "one-shot plan keeps shedding where the new queries now live and "
        "pays multiples of the error."
    ),
    "ext-sampling": (
        "(Extension — §3.2.1.) 'The statistics can easily be approximated "
        "using sampling': plan quality should degrade only gracefully as the "
        "statistics grid samples a thinning fraction of the update stream."
    ),
    "ext-safe-region": (
        "(Extension — related-work comparison.) Distributed safe-region "
        "systems [1, 3, 7] receive updates only when they affect a result: "
        "excellent CQ accuracy per update, but no load control and no "
        "snapshot/historic query support. LIRA keeps the whole population "
        "tracked within Δ⊣ at a controllable budget."
    ),
}


def summarize(exp_id: str, result) -> list[str]:
    """Automatically derived observations about the measured shape."""
    lines = []

    def series(name):
        return result.get_series(name).y

    try:
        if exp_id == "fig01":
            y = series("f empirical")
            lines.append(
                f"f monotone non-increasing, first-step drop "
                f"{y[0] - y[1]:.3f} vs last-step drop {y[-2] - y[-1]:.4f} "
                f"(steep head, flat tail), f(Δ⊣) = {y[-1]:.3f}."
            )
        elif exp_id == "table1":
            ll, lh, hl, hh = series("delta_i (m)")
            lines.append(
                f"measured throttlers: high-n/low-m {hl:.1f} m > high/high "
                f"{hh:.1f} m ≥ low/low {ll:.1f} m ≥ low-n/high-m {lh:.1f} m — "
                "the Table 1 ordering."
            )
        elif exp_id == "fig03":
            counts = series("regions at level")
            populated = [i for i, c in enumerate(counts) if c > 0]
            lines.append(
                f"regions span quad-tree levels {populated[0]}–"
                f"{populated[-1]} (non-uniform), with the largest kept regions "
                "query-poor (see mean-m column)."
            )
        elif exp_id in ("fig04", "fig05", "fig06", "fig07"):
            for name in ("random-drop rel", "uniform rel", "lira-grid rel"):
                y = series(name)
                lines.append(
                    f"{name}: {min(y):.2f}x–{max(y):.2f}x LIRA across "
                    "the z sweep."
                )
        elif exp_id == "fig08":
            for s in result.series:
                lines.append(
                    f"{s.name}: Lira-Grid/LIRA peaks at "
                    f"{max(s.y):.2f}x, ends at {s.y[-1]:.2f}x at the largest l."
                )
        elif exp_id == "fig09":
            for s in result.series:
                lines.append(
                    f"{s.name}: error {s.y[0]:.4f} at l={result.x[0]:.0f} "
                    f"→ {s.y[-1]:.4f} at l={result.x[-1]:.0f}."
                )
        elif exp_id == "fig10":
            lira_dev, uni_dev = series("LIRA D_ev^C"), series("Uniform D_ev^C")
            lira_cov, uni_cov = series("LIRA C_ov^C"), series("Uniform C_ov^C")
            lines.append(
                f"LIRA D_ev^C {lira_dev[0]:.3f} → {lira_dev[-1]:.3f} "
                f"(decreasing), Uniform constant {uni_dev[0]:.3f}; LIRA C_ov^C "
                f"{lira_cov[0]:.2f} → {lira_cov[-1]:.2f}, Uniform {uni_cov[0]:.2f}."
            )
        elif exp_id == "fig11":
            spans = {s.name: max(s.y) - min(s.y) for s in result.series}
            msg = ", ".join(f"{k}: span {v:.2f} m" for k, v in spans.items())
            lines.append(f"measured sensitivity to Δ⇔ — {msg}.")
        elif exp_id == "fig12":
            for s in result.series:
                lines.append(
                    f"{s.name}: Uniform/LIRA peaks at {max(s.y):.1f}x."
                )
        elif exp_id == "fig13":
            pos, cont = series("E_rr^P (m)"), series("E_rr^C")
            lines.append(
                f"E_rr^P {pos[0]:.2f} → {pos[-1]:.2f} m (rising), "
                f"E_rr^C {cont[0]:.4f} → {cont[-1]:.4f} (falling)."
            )
        elif exp_id == "fig14":
            for s in result.series:
                lines.append(
                    f"{s.name}: {s.y[0]:.1f} ms at l={result.x[0]:.0f} → "
                    f"{s.y[-1]:.1f} ms at l={result.x[-1]:.0f}."
                )
        elif exp_id == "table3":
            regions = series("regions per station")
            lines.append(
                f"{regions[0]:.1f} regions/station at {result.x[0]:.0f} km "
                f"→ {regions[-1]:.1f} at {result.x[-1]:.0f} km (monotone); see the "
                "note for the density-dependent placement row."
            )
        elif exp_id == "ext-snapshot":
            cq, snap = series("CQ E_rr^P (m)"), series("snapshot E_rr^P (m)")
            lines.append(
                f"CQ error {cq[0]:.2f} → {cq[-1]:.2f} m (falling) while "
                f"snapshot error {snap[0]:.2f} → {snap[-1]:.2f} m (rising)."
            )
        elif exp_id == "ext-adaptivity":
            re_adapt = series("re-adapting E_rr^C")
            one_shot = series("one-shot E_rr^C")
            lines.append(
                f"after the shift: re-adapting {re_adapt[1]:.4f} vs one-shot "
                f"{one_shot[1]:.4f} ({one_shot[1] / max(re_adapt[1], 1e-12):.1f}x worse)."
            )
        elif exp_id == "ext-sampling":
            y = series("E_rr^C")
            lines.append(
                f"error across sampling rates: {min(y):.4f}–{max(y):.4f} — "
                "sampled maintenance is safe."
            )
        elif exp_id == "ext-safe-region":
            lira_snap = series("LIRA snapshot E_rr^P (m)")
            safe_snap = series("safe-region snapshot E_rr^P (m)")
            lines.append(
                f"snapshot error: LIRA {min(lira_snap):.1f}–{max(lira_snap):.1f} m "
                f"vs safe-region {safe_snap[0]:.1f} m — the untracked-population "
                "cost the paper's related work discusses."
            )
        elif exp_id == "ablation-speed":
            lines.append("see sent-ratio columns vs the z targets.")
        elif exp_id == "ablation-alpha":
            y = series("E_rr^C")
            lines.append(
                f"error varies only {min(y):.4f}–{max(y):.4f} across the "
                "α sweep — the rule's α is comfortably sufficient."
            )
    except KeyError:
        pass
    return lines


def render_section(name: str, scale) -> str:
    """One experiment's markdown section (timing printed, not rendered)."""
    runner = EXPERIMENTS[name]
    with Stopwatch() as stopwatch:
        if "scale" in inspect.signature(runner).parameters:
            result = runner(scale=scale)
        else:
            result = runner()
    print(f"[{name}] done in {stopwatch.elapsed:.1f}s")
    parts = [
        f"## {name}: {result.title}\n",
        f"**Paper:** {PAPER_CLAIMS.get(name, '(extension)')}\n",
    ]
    observations = summarize(name, result)
    if observations:
        parts.append("**Measured:** " + " ".join(observations) + "\n")
    parts.append(result.to_markdown() + "\n")
    if result.notes:
        parts.append(f"*{result.notes}*\n")
    return "\n".join(parts)


def committed_section(document: str, name: str) -> str | None:
    """The ``## name: …`` section of an existing report, or ``None``."""
    match = re.search(rf"^## {re.escape(name)}: .*?(?=^## |\Z)", document, re.M | re.S)
    return match.group(0).rstrip("\n") + "\n" if match else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", choices=sorted(SCALES), default="medium")
    parser.add_argument("--out", default="EXPERIMENTS.md")
    parser.add_argument(
        "--only", nargs="*", default=None, help="subset of experiment ids"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="write nothing: fail if a regenerated section differs from --out's",
    )
    args = parser.parse_args(argv)
    scale = SCALES[args.scale]
    names = args.only or list(EXPERIMENTS)
    out = Path(args.out)

    # Sections are replaced where they stand, so hand-written sections
    # of an existing report (and sections not regenerated) survive.
    document = out.read_text() if out.exists() else preamble(scale) + FIDELITY_NOTES
    stale = 0
    for name in names:
        fresh, committed = render_section(name, scale), committed_section(document, name)
        if fresh == committed:
            continue
        stale += 1
        if args.check:
            print(f"[{name}] differs from {args.out}:")
            print("".join(difflib.unified_diff(
                (committed or "").splitlines(True), fresh.splitlines(True),
                "committed", "regenerated",
            )))
        elif committed is not None:
            document = document.replace(committed, fresh)
        else:
            head, mark, tail = document.partition(_TRAILER_MARK)
            document = head + fresh + "\n" + mark + tail
    print(f"{len(names) - stale} of {len(names)} sections identical to {args.out}")
    if args.check:
        return 1 if stale else 0
    out.write_text(document)
    print(f"wrote {args.out}")
    return 0


def preamble(scale) -> str:
    return "\n".join([
        "# EXPERIMENTS — paper vs. measured\n",
        "Generated by `python scripts/generate_experiments_report.py "
        f"--scale {scale.name}`.\n",
        f"Scale: **{scale.name}** — {scale.n_nodes} nodes, "
        f"{scale.duration:.0f} s trace over "
        f"({scale.side_meters / 1000:.0f} km)², default l = {scale.l}, "
        f"α = {scale.alpha}. The paper's absolute numbers come from a "
        "different (unavailable) trace and 2007 Java infrastructure; the "
        "reproduced objects are the qualitative shapes, which the benchmark "
        "suite also asserts (`pytest benchmarks/ --benchmark-only`).\n\n",
    ])


#: New sections go in front of this heading (at the end without it).
_TRAILER_MARK = "## Fidelity notes"

FIDELITY_NOTES = """## Fidelity notes

Two places where this reproduction's *shape* is measurably weaker than
the paper's, and why — recorded here so they are not mistaken for bugs:

1. **Figure 8 at large l.** The paper reports Lira-Grid up to ~35% worse
   than LIRA, converging only at very large l. Here the gap peaks at
   moderate l (strongest under the Inverse distribution, as in the
   paper) and closes by l = 250: our synthetic workload's heterogeneity
   is milder than the Chamblee trace's, so a 15x15 uniform grid already
   reaches sufficient granularity. The benchmark suite asserts the
   region-aware advantage at moderate granularity, where it is robust.
2. **Figure 14's α series.** The paper's Stage I (per-cell aggregation)
   is a visible α² term in Java; our Stage I is vectorized numpy block
   sums, so the α² constant is tiny and the l·log l Python term
   dominates. The α effect is only visible at extreme α (the benchmark
   uses a 1024x cell-count gap); the l scaling matches the paper.

Everything else — policy orderings and magnitudes' direction,
convergence at small z, the m/n effect, the w trade-off, fairness
behaviour, messaging costs — reproduces the paper's shape directly; see
the benchmark suite for the machine-checked version of each claim.
"""


if __name__ == "__main__":
    raise SystemExit(main())
