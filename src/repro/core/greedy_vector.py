"""Array-resident GREEDYINCREMENT: the kernel behind ``greedy_increment``.

The reference implementation (``tests/oracles/greedy.py``) is the
paper's scalar heap loop: pop the region with the highest update gain,
advance its throttler one segment, repeat until the expenditure meets
the budget.  This module computes the *same pops in the same order*
with array reductions, exploiting two structural facts:

1. **Pop order is expenditure-free.**  A gain ``Sᵢ = wᵢ·r(Δᵢ)/mᵢ``
   depends only on the region's current segment, never on the running
   expenditure, so the heap's pop sequence can be computed up front.
   Every region marches along one shared *knot path* (the (L, S)
   segment schedule: knot levels ``L[k]`` and per-segment rates
   ``S[k]``), so region ``i``'s k-th pop has the precomputable gain
   ``g[i, k]``.  The heap pops entries in descending order of the
   *running prefix minimum* ``key[i, k] = min(g[i, :k+1])``: a region
   whose gain sequence rises pops the risen entries immediately after
   the prefix-minimum "leader" (they beat everything else left in the
   heap), which is exactly what a stable descending sort over the
   prefix-min keys produces.  Unbounded (infinite-gain) entries pop
   first, round-robin in ``(segment, region)`` order — the FIFO
   tie-break among equal heap keys.
2. **The expenditure chain is a single ufunc accumulation.**  With the
   pop order fixed, ``expenditure -= rate·step`` over the pops is
   ``np.subtract.accumulate`` over the gathered per-pop subtrahends —
   bit-identical to the sequential left fold, because the accumulate
   loop performs the same float subtractions in the same order.
3. **A run stops at the budget, so the sort can too.**  Both facts
   hold for any *prefix* of the pop order, and the budget is usually
   met a few columns down the knot path.  The tables, the sort and the
   chain are therefore built over a *budget horizon* — the first
   ``h ≪ κ`` columns per region — and the result is accepted only when
   proved equal to the full-κ one (the horizon lemma in
   :func:`_solve_rows`); otherwise the solve repeats at full κ.  The
   depth one call consumed seeds the next call's ``h``
   (:class:`~repro.core.incremental.GreedyHorizon`) — a hint that can
   cost a retry, never a result.

One pipeline (:func:`_solve`) serves the final throttler solve (one
problem, fairness) and GRIDREDUCE's stacked CALCERRGAIN rows.
Everything the sort cannot prove is delegated, never approximated:

* a pop whose budget-landing test fires (the usual way a run ends),
  or a fairness constraint about to engage, hands off to
  :func:`_continue_scalar` — the reference loop restarted from
  reconstructed state (deltas, expenditure, heap with
  order-preserving counters), which finishes the run exactly;
* a cross-region tie among the prefix's finite keys (where FIFO order
  depends on push history the sort cannot see) runs the whole problem
  in that loop, from the initial state.

Either way the result is bit-identical to the reference loop — enforced
by the equivalence suite in ``tests/test_adapt_vector.py``.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.greedy import (
    _EPS,
    GreedyResult,
    RegionStats,
    _region_weights,
    _uniform_solution,
)
from repro.core.incremental import GreedyHorizon
from repro.core.reduction import PiecewiseLinearReduction
from repro.sanitize.errstate import vector_errstate

__all__ = [
    "GreedyBatch",
    "greedy_increment_arrays",
    "greedy_increment_vector",
]


@dataclass(frozen=True)
class _SegmentSchedule:
    """The shared (L, S) knot-path schedule of one reduction function.

    Every region starts at Δ⊢ and, until touched by budget landing or
    fairness truncation, advances along the same knot sequence.  Entry
    ``k`` describes a region's k-th heap pop: popped at ``delta_at[k]``
    (level ``L[k]``), advancing by ``full_step[k]`` to ``new_at[k]``
    with segment rate ``rate_at[k]`` (``S[k]``).  ``path_vals[c]`` is
    the throttler value after ``c`` advancing pops.  A terminal
    ``full_step`` of zero marks the reference loop's "blocked" exit
    (the residual step to Δ⊣ is below the float tolerance).
    """

    delta_at: np.ndarray
    new_at: np.ndarray
    target_at: np.ndarray
    full_step: np.ndarray
    rate_at: np.ndarray
    path_vals: np.ndarray
    n_entries: int
    n_advances: int


def _schedule_for(pw: PiecewiseLinearReduction) -> _SegmentSchedule:
    """The memoized knot-path schedule of ``pw``.

    Replays the reference loop's per-pop delta arithmetic —
    ``next_knot``, the Δ⊣ clamp, and ``new = old + step`` — in the same
    float expressions, so every schedule value is the exact double the
    scalar loop computes.
    """
    cached = pw.__dict__.get("_vector_schedule")
    if cached is not None:
        return cached  # type: ignore[no-any-return]
    d_min, d_max, seg = pw.delta_min, pw.delta_max, pw.segment_size
    delta_at: list[float] = []
    new_at: list[float] = []
    target_at: list[float] = []
    full_step: list[float] = []
    rate_at: list[float] = []
    cur = d_min
    while True:
        next_knot = d_min + seg * (math.floor((cur - d_min) / seg + 1e-7) + 1)
        target = min(next_knot, d_max)
        step = target - cur
        delta_at.append(cur)
        target_at.append(target)
        rate_at.append(pw.r(cur))
        if step <= _EPS:
            # Reference loop: the pop parks the region in ``blocked``
            # without advancing or spending.
            new_at.append(cur)
            full_step.append(0.0)
            break
        new = cur + step
        new_at.append(new)
        full_step.append(step)
        if new >= d_max - _EPS:
            break
        cur = new
    steps_arr = np.array(full_step, dtype=np.float64)
    schedule = _SegmentSchedule(
        delta_at=np.array(delta_at, dtype=np.float64),
        new_at=np.array(new_at, dtype=np.float64),
        target_at=np.array(target_at, dtype=np.float64),
        full_step=steps_arr,
        rate_at=np.array(rate_at, dtype=np.float64),
        path_vals=np.concatenate(([d_min], new_at)),
        n_entries=len(delta_at),
        n_advances=int(np.count_nonzero(steps_arr > 0)),
    )
    pw.__dict__["_vector_schedule"] = schedule
    return schedule


def _entry_tables(
    weights: np.ndarray, m: np.ndarray, sched: _SegmentSchedule, h: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry ``(..., A, h)`` prefix-min key and rate tables.

    Covers the first ``h`` knot-path columns and broadcasts over any
    number of leading problem axes.  The gain expression under the
    prefix minimum mirrors the reference closure bit for bit:
    ``min(fl(fl(w·S[k])/m), 1e300)`` for real query mass, ``inf``/``0``
    for subnormal ``m`` depending on the rate sign.
    """
    rate = sched.rate_at[:h]
    wr = weights[..., None] * rate
    m_col = m[..., None]
    massive = m_col > 1e-300
    safe_m = np.where(massive, m_col, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        gains = np.where(
            massive,
            np.minimum(wr / safe_m, 1e300),
            np.where(wr > 0, np.inf, 0.0),
        )
    return np.minimum.accumulate(gains, axis=-1), wr


def _candidate_order(keys: np.ndarray) -> np.ndarray:
    """Exact heap pop order per problem from the prefix-min key table.

    ``keys`` is ``(R, A, h)``.  Returns flat entry indices
    (region-major, ``i*h + k``) in pop order: infinite keys first in
    (segment, region) round-robin, then finite keys in stable
    descending order (the stable tie-break keeps each region's
    equal-key run in segment order, adjacent to its leader).  Entries
    of inactive regions must already carry ``-inf`` keys; they sort to
    the end, beyond any cut.
    """
    r_count, a, h = keys.shape
    order = np.argsort(-keys.reshape(r_count, a * h), axis=1, kind="stable")
    inf_mask = np.isposinf(keys)
    n_inf = inf_mask.sum(axis=(1, 2))
    if n_inf.any():
        # Rewrite the leading (region-major) run of infinite entries in
        # transposed — (segment, region) — order.  np.nonzero on the
        # transposed mask yields exactly that order, grouped by problem.
        problem, seg_idx, reg_idx = np.nonzero(inf_mask.transpose(0, 2, 1))
        offsets = np.concatenate(([0], np.cumsum(n_inf)))
        within = np.arange(problem.size) - offsets[problem]
        order[problem, within] = reg_idx * h + seg_idx
    return order


def _first_true(flags: np.ndarray, default: int) -> np.ndarray:
    """Per-row index of the first True in ``(R, N)`` flags, or ``default``."""
    if flags.shape[1] == 0:
        return np.full(flags.shape[0], default)
    first = flags.argmax(axis=1)
    return np.where(flags[np.arange(flags.shape[0]), first], first, default)


@dataclass
class GreedyBatch:
    """GREEDYINCREMENT results of ``(P, A)`` stacked problems, by field.

    Array consumers (the gain kernel) read the columns; ``batch[row]``
    boxes one problem's :class:`~repro.core.greedy.GreedyResult`.
    """

    thresholds: np.ndarray
    expenditure: np.ndarray
    budget: np.ndarray
    inaccuracy: np.ndarray
    steps: np.ndarray
    budget_met: np.ndarray

    def __len__(self) -> int:
        return len(self.budget)

    def __getitem__(self, row: int) -> GreedyResult:
        return GreedyResult(
            thresholds=self.thresholds[row].copy(),
            expenditure=float(self.expenditure[row]),
            budget=float(self.budget[row]),
            inaccuracy=float(self.inaccuracy[row]),
            steps=int(self.steps[row]),
            budget_met=bool(self.budget_met[row]),
        )


def greedy_increment_vector(
    regions: list[RegionStats],
    pw: PiecewiseLinearReduction,
    z: float,
    fairness: float | None,
    use_speed: bool,
    horizon: GreedyHorizon | None = None,
) -> GreedyResult:
    """GREEDYINCREMENT for one problem.

    Bit-identical to the reference loop: the array fast path runs while
    its preconditions provably hold and hands the tail (budget landing,
    fairness engagement, cross-region gain ties) to the exact scalar
    continuation.

    Under ``REPRO_SANITIZE=1`` the kernel runs with NaN/overflow
    trapping (:func:`repro.sanitize.vector_errstate`).
    """
    with vector_errstate():
        weights = _region_weights(regions, use_speed)
        m = np.array([reg.m for reg in regions], dtype=np.float64)
        # Δ⇔ = 0, or a positive Δ⇔ below the resolution floor.
        if fairness is not None and fairness < (pw.delta_max - pw.delta_min) * 1e-4:
            return _uniform_solution(pw, z, weights, m)
        return _solve(weights[None], m[None], pw, z, fairness, horizon)[0]


def greedy_increment_arrays(
    n: np.ndarray,
    m: np.ndarray,
    s: np.ndarray,
    pw: PiecewiseLinearReduction,
    z: float,
    use_speed: bool,
    horizon: GreedyHorizon | None = None,
) -> GreedyBatch:
    """GREEDYINCREMENT over ``(P, A)`` stacked problem statistics.

    GRIDREDUCE's CALCERRGAIN scores one four-child throttler problem
    per candidate node; this entry point shares the sort/accumulate
    machinery across all problems of one expansion (fairness is never
    constrained inside CALCERRGAIN) and assembles every clean row with
    pure array reductions — no per-row kernel work.  Rows the sort
    cannot prove (cross-region key ties, a landing pop that leaves a
    float residue above the budget tolerance) resolve in the exact
    scalar continuation.  Results are bit-identical to running the
    reference loop per problem, and independent of how problems are
    grouped into batches (every op is row-local).

    Under ``REPRO_SANITIZE=1`` the kernel runs with NaN/overflow
    trapping (:func:`repro.sanitize.vector_errstate`); the deliberate
    ``errstate(ignore)`` window around the landing-step division keeps
    its local masking either way.
    """
    with vector_errstate():
        n = np.asarray(n, dtype=np.float64)
        # _region_weights, vectorized over rows: nᵢ·sᵢ, falling back to
        # nᵢ for rows whose speed-weighted mass vanishes.
        weights = n
        if use_speed:
            weights = n * np.asarray(s, dtype=np.float64)
            fallback = (weights.sum(axis=1) <= 0) & (n.sum(axis=1) > 0)
            if fallback.any():
                weights = np.where(fallback[:, None], n, weights)
        return _solve(weights, np.asarray(m, dtype=np.float64), pw, z, None, horizon)


def _solve(
    weights: np.ndarray,
    m: np.ndarray,
    pw: PiecewiseLinearReduction,
    z: float,
    fairness: float | None,
    horizon: GreedyHorizon | None,
) -> GreedyBatch:
    """Solve ``(P, A)`` problems on a budget horizon, retrying at full κ.

    A row whose budget is already met pops nothing — the reference
    loop's while-condition fails on entry — so it gets Δ⊢ everywhere,
    its whole total as expenditure and no table.  The other rows first
    build only ``horizon.columns(κ)`` knot-path columns per region; rows
    whose truncated solve is not *proved* equal to the full one (see
    :func:`_solve_rows`) are solved again over all κ columns.  Regions
    with no query mass have infinite gains down the whole knot path and
    would defeat any horizon: a single problem carries them as a
    closed-form head block (:func:`_unbounded_head`), stacked problems
    are ragged, so their rows with such regions take full κ directly.
    The depth the cut windows consumed becomes the next call's hint.
    """
    if horizon is None:
        horizon = GreedyHorizon()
    p_count, a = weights.shape
    totals = weights.sum(axis=1)
    budgets = z * totals
    # The no-pop result; _solve_rows overwrites the open rows.
    thresholds = np.full((p_count, a), pw.delta_min, dtype=np.float64)
    expenditure = totals.copy()
    steps = np.zeros(p_count, dtype=np.int64)
    out = (thresholds, expenditure, steps)
    open_rows = np.flatnonzero(~(totals <= budgets + _EPS))
    if open_rows.size:
        sched = _schedule_for(pw)
        k = sched.n_entries
        unbounded = (m <= 1e-300) & (weights > 0)
        head = _unbounded_head(weights[0], unbounded[0], sched) if p_count == 1 else None
        full = unbounded.any(axis=1) if head is None else np.zeros(1, dtype=bool)
        problem = (weights, m, totals, budgets, pw, sched, fairness, head)

        h = horizon.columns(k)
        quick = open_rows[~full[open_rows]]
        rows = open_rows
        depth = np.zeros(p_count, dtype=np.int64)
        retried = 0
        if h < k and quick.size:
            proved, depth[quick], built = _solve_rows(out, quick, h, *problem)
            horizon.table_entries += built
            retried = quick.size - int(proved.sum())
            rows = np.concatenate((open_rows[full[open_rows]], quick[~proved]))
        if rows.size:
            _, depth[rows], built = _solve_rows(out, rows, k, *problem)
            horizon.table_entries += built
        horizon.retries += retried
        horizon.last_columns = k if retried else h
        if quick.size:
            horizon.depth = int(np.median(depth[quick]))
    return GreedyBatch(
        thresholds=thresholds,
        expenditure=expenditure,
        budget=budgets,
        inaccuracy=(m * thresholds).sum(axis=1),
        steps=steps,
        # The reference loop's final budget test, verbatim.
        budget_met=expenditure
        <= budgets + np.maximum(_EPS, 1e-9 * np.maximum(totals, 1.0)),
    )


class _Head(NamedTuple):
    """One problem's infinite-key entries in pop order; ``rest`` are the
    regions left for the sort."""

    regions: np.ndarray
    entries: np.ndarray
    rates: np.ndarray
    rest: np.ndarray


def _unbounded_head(
    weights: np.ndarray, unbounded: np.ndarray, sched: _SegmentSchedule
) -> _Head | None:
    """One problem's infinite-key entries as a closed-form block.

    Infinite gains pop before every finite one, round-robin in
    ``(segment, region)`` order (the heap's FIFO tie-break), so while
    every entry of the unbounded regions is infinite the block needs no
    sort and those regions no table.  ``None`` when there is no such
    region or a zero-rate segment ends the infinite run early — the
    general order handles those.
    """
    ids = np.flatnonzero(unbounded)
    wr = sched.rate_at[:, None] * weights[ids]
    if ids.size == 0 or not (wr > 0).all():
        return None
    k = sched.n_entries
    return _Head(
        regions=np.tile(ids, k),
        entries=np.repeat(np.arange(k), ids.size),
        rates=wr.reshape(-1),
        rest=np.flatnonzero(~unbounded),
    )


def _solve_rows(
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
    rows: np.ndarray,
    h: int,
    weights: np.ndarray,
    m: np.ndarray,
    totals: np.ndarray,
    budgets: np.ndarray,
    pw: PiecewiseLinearReduction,
    sched: _SegmentSchedule,
    fairness: float | None,
    head: _Head | None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Solve ``rows`` on the first ``h`` knot-path columns of every region.

    The one tables → order → chain → cut pipeline.  Returns, per row,
    whether the result is *proved* and the knot-path depth its cut
    window consumed, plus the number of table entries built; proved
    rows are written into ``out`` = (thresholds, expenditure, steps).

    **Horizon lemma.**  Keys are prefix minima and the sort is stable,
    so every entry of a region beyond column ``h−1`` sorts after that
    region's column ``h−1`` entry: up to and including the first
    column-``h−1`` entry, the truncated pop order *is* the full-κ pop
    order, entry for entry and subtraction for subtraction.  A row is
    proved when its cut window — the prefix through the cut, extended
    over the equal-key run straddling it — ends there or earlier.
    """
    w, mm, tot, bud = weights[rows], m[rows], totals[rows], budgets[rows]
    thresholds, expenditure, steps = out
    r_count, a = w.shape
    k = sched.n_entries
    all_active = bool((w > 0).all())
    n_head = 0
    if head is not None:
        n_head = head.regions.size
        w, mm = w[:, head.rest], mm[:, head.rest]
    keys, wr = _entry_tables(w, mm, sched, h)
    # Regions never pushed (w ≤ 0) sort last (-inf) and spend nothing.
    live = w > 0
    if not live.all():
        keys = np.where(live[..., None], keys, -np.inf)
        wr = np.where(live[..., None], wr, 0.0)
    n_sorted = w.shape[1] * h
    n_live = n_head + live.sum(axis=1) * h
    n_total = n_head + n_sorted

    order = _candidate_order(keys)
    flat = order + (np.arange(r_count) * n_sorted)[:, None]
    region_ord = order // h
    entry_ord = order - region_ord * h
    wr_ord = wr.reshape(-1)[flat]
    keys_ord = keys.reshape(-1)[flat]
    if head is not None:
        region_ord = np.concatenate((head.regions[None], head.rest[region_ord]), axis=1)
        entry_ord = np.concatenate((head.entries[None], entry_ord), axis=1)
        wr_ord = np.concatenate((head.rates[None], wr_ord), axis=1)
        keys_ord = np.concatenate((np.full((1, n_head), np.inf), keys_ord), axis=1)
    fs_ord = sched.full_step[entry_ord]
    fs_pos = fs_ord > 0
    # ``chain[:, j]`` is E entering pop j (one more column than pops):
    # subtract.accumulate is the scalar loop's left fold of
    # ``E -= rate·step``, subtraction for subtraction.  Gather-then-
    # multiply equals multiply-then-gather bit for bit.
    chain = np.subtract.accumulate(
        np.concatenate((tot[:, None], wr_ord * fs_ord), axis=1), axis=1
    )

    # Per-row cuts.  ``term``: the while-condition fails before pop j
    # (including j = n_live, heap exhaustion) — the chain is
    # non-increasing, so the first sub-budget index is a suffix count.
    # ``land``: pop j is a partial budget landing.  ``engage``: the
    # fairness constraint could act at pop j.
    pos = np.arange(n_total)
    with np.errstate(divide="ignore", invalid="ignore"):
        land_step = (chain[:, :-1] - bud[:, None]) / np.where(
            wr_ord > 1e-300, wr_ord, 1.0
        )
    term = np.minimum(
        (n_total + 1) - (chain <= bud[:, None] + _EPS).sum(axis=1), n_live
    )
    land = _first_true(
        (wr_ord > 1e-300) & fs_pos & (land_step < fs_ord), n_total
    )
    cut = np.minimum(term, land)
    engage = n_total + 1
    if fairness is not None:
        engage = _fairness_engagement(
            sched, entry_ord[0], int(n_live[0]), a, all_active, fairness
        )
        cut = np.minimum(cut, engage)

    # The cut window: extend through the finite equal-key run straddling
    # the cut (an entry beyond the cut whose key ties a prefix key can
    # truly pop *before* prefix members — FIFO order the sort cannot
    # see; infinite keys never tie).  A cross-region tie inside it makes
    # the order depend on heap push history: restart in the scalar loop.
    eq = (keys_ord[:, 1:] == keys_ord[:, :-1]) & np.isfinite(keys_ord[:, 1:])
    hi = _first_true(~eq & (pos[:-1] >= cut[:, None]), n_total - 1) + 1
    tie_pair = eq & (region_ord[:, 1:] != region_ord[:, :-1])
    tie = _first_true(tie_pair, n_total) <= hi - 2

    sorted_live = (pos >= n_head) & (pos < n_live[:, None])
    proved = np.ones(r_count, dtype=bool)
    if h < k:
        proved = hi <= _first_true((entry_ord == h - 1) & sorted_live, n_total + 1)
    depth = np.where(sorted_live & (pos < hi[:, None]), entry_ord + 1, 0).max(axis=1)

    # Clean-row assembly: thresholds from per-region advance counts,
    # one scattered partial step for landing rows (the reference does
    # exactly one more, partial, pop and its while-condition fails).
    adv = (pos < cut[:, None]) & fs_pos
    flat_reg = (region_ord + (np.arange(r_count) * a)[:, None])[adv]
    counts = np.bincount(flat_reg, minlength=r_count * a).reshape(r_count, a)
    deltas = sched.path_vals[counts]
    rowsel = np.arange(r_count)
    exp_at = chain[rowsel, cut]
    rate = wr_ord[rowsel, np.minimum(cut, n_total - 1)]
    step = (exp_at - bud) / np.where(rate > 1e-300, rate, 1.0)
    exp_land = exp_at - rate * step
    landed = (cut == land) & (cut < term) & (cut < engage) & (exp_land <= bud + _EPS)
    lr = np.flatnonzero(landed)
    if lr.size:
        deltas[lr, region_ord[lr, cut[lr]]] = (
            sched.delta_at[entry_ord[lr, cut[lr]]] + step[lr]
        )
    slow = tie | ((cut < term) & ~landed)
    done = proved & ~slow
    thresholds[rows[done]] = deltas[done]
    expenditure[rows[done]] = np.where(landed, exp_land, exp_at)[done]
    steps[rows[done]] = (counts.sum(axis=1) + landed)[done]

    for r in np.flatnonzero(proved & slow):
        # Tie rows restart the reference loop from scratch (pop order
        # ambiguous); the others continue it from the verified cut.
        start = 0 if tie[r] else int(cut[r])
        pops = region_ord[r, :start]
        advancing = fs_pos[r, :start]
        row = rows[r]
        thresholds[row], expenditure[row], steps[row] = _continue_scalar(
            pw=pw,
            sched=sched,
            weights=weights[row],
            m=m[row],
            deltas=sched.path_vals[np.bincount(pops[advancing], minlength=a)],
            expenditure=float(chain[r, start]),
            budget=float(bud[r]),
            steps=int(advancing.sum()),
            fairness=fairness,
            pops=pops,
        )
    return proved, depth, r_count * n_total


def _fairness_engagement(
    sched: _SegmentSchedule,
    entry_ord: np.ndarray,
    n_live: int,
    n_regions: int,
    all_active: bool,
    fairness: float,
) -> int:
    """First pop index at which the fairness constraint *could* act.

    Strictly conservative: before the returned index the reference
    loop provably never truncates a step against ``Δ⊳ + Δ⇔``, never
    blocks a region, and never wakes one — so the fairness run is
    bit-identical to the unconstrained run up to there.  The running
    minimum ``Δ⊳`` before pop ``j`` is the knot value of the completed
    round count: round ``r`` completes at the latest position any
    region pops its r-th entry (never, within a truncated table that
    lacks some region's r-th entry).  The check substitutes Δ⊳ *before*
    the pop for the post-pop minimum the reference ``at_limit`` test
    reads; the minimum is non-decreasing and ``fl`` is monotone, so the
    substitution only ever engages earlier (never later) than the
    reference — erring into the exact scalar path.
    """
    n = entry_ord.size
    cur_min: np.ndarray | float = sched.path_vals[0]
    if all_active:
        cols = entry_ord[:n_live]
        last = np.zeros(sched.n_entries, dtype=np.int64)
        np.maximum.at(last, cols, np.arange(n_live))
        complete = np.bincount(cols, minlength=sched.n_entries) == n_regions
        rounds = np.searchsorted(np.where(complete, last, n), np.arange(n), side="left")
        cur_min = sched.path_vals[np.minimum(rounds, sched.n_advances)]
    # else: some region never enters the heap and the minimum stays Δ⊢.
    limit = cur_min + fairness
    engaged = (
        (sched.target_at[entry_ord] > limit)
        | (sched.new_at[entry_ord] >= limit - _EPS)
        | (sched.full_step[entry_ord] <= 0)
    )
    return int(_first_true(engaged[None], n + 1)[0])


def _continue_scalar(
    pw: PiecewiseLinearReduction,
    sched: _SegmentSchedule,
    weights: np.ndarray,
    m: np.ndarray,
    deltas: np.ndarray,
    expenditure: float,
    budget: float,
    steps: int,
    fairness: float | None,
    pops: np.ndarray,
) -> tuple[np.ndarray, float, int]:
    """Finish a run exactly: the reference loop from reconstructed state.

    ``pops`` lists the regions of the verified prefix in pop order;
    ``deltas``, ``expenditure`` and ``steps`` are the state it left.
    The heap is rebuilt with order-preserving counters — regions never
    popped keep their initial push rank, re-pushed regions are ordered
    by the position of their latest pop — so every future FIFO
    tie-break matches the uninterrupted run (the prefix was verified
    tie-free, making the reconstruction unambiguous).  Returns the
    final ``(thresholds, expenditure, steps)``.
    """
    d_min, d_max = pw.delta_min, pw.delta_max
    seg = pw.segment_size
    w_l = weights.tolist()
    m_l = m.tolist()
    deltas_l = deltas.tolist()
    l = len(w_l)
    cut = pops.size

    # Sorted-list multiset: same float values as the reference
    # _MinMultiset (both report the exact minimum of the same multiset),
    # but with O(1) min for the hot loop.
    ordered = sorted(deltas_l)
    insort = bisect.insort
    bsearch = bisect.bisect_left

    # Inlined PiecewiseLinearReduction.r for in-domain deltas: same
    # segment-index expression, same clamps, same rate list.  Regions
    # march the same knot path, so per-delta knot/rate pairs repeat
    # constantly; the memo returns the identical floats.
    rates: list[float] = pw._rates
    last_seg = len(rates) - 1
    knot_memo: dict[float, tuple[float, float]] = {}

    def knot_info(old: float) -> tuple[float, float]:
        got = knot_memo.get(old)
        if got is None:
            next_knot = d_min + seg * (math.floor((old - d_min) / seg + 1e-7) + 1)
            if old >= d_max:
                rate0 = rates[last_seg]
            else:
                idx = int((old - d_min) / seg)
                rate0 = rates[
                    idx if 0 <= idx <= last_seg else (0 if idx < 0 else last_seg)
                ]
            got = (min(next_knot, d_max), rate0)
            knot_memo[old] = got
        return got

    def gain(i: int, delta: float) -> float:
        rate = w_l[i] * knot_info(delta)[1]
        if m_l[i] > 1e-300:
            return min(rate / m_l[i], 1e300)
        return math.inf if rate > 0 else 0.0

    # A region's next heap entry carries the gain at its current Δ — the
    # closure evaluates the table's expression (same floats).
    blocked: dict[int, bool] = {}
    heap: list[tuple[float, int, int]] = []
    k = sched.n_entries
    counts = np.bincount(pops, minlength=l).tolist()
    last_pop_pos = np.full(l, -1, dtype=np.int64)
    np.maximum.at(last_pop_pos, pops, np.arange(cut))
    for i in np.flatnonzero(weights > 0).tolist():
        cnt = counts[i]
        if cnt >= k:
            if sched.full_step[k - 1] <= 0:
                blocked[i] = True  # popped its blocked-terminal entry
            continue  # else retired at Δ⊣
        rank = i if cnt == 0 else l + int(last_pop_pos[i])
        heap.append((-gain(i, deltas_l[i]), rank, i))
    heapq.heapify(heap)
    counter = l + cut + 1

    # ------------------------------------------------------------------
    # Mirror of the reference loop in tests/oracles/greedy.py
    # (same expressions in the same order — keep the two in sync).
    # ------------------------------------------------------------------
    heappop, heappush = heapq.heappop, heapq.heappush
    while expenditure > budget + _EPS and heap:
        _, _, i = heappop(heap)
        old = deltas_l[i]
        current_min = ordered[0]
        target, rate = knot_info(old)
        if fairness is not None:
            target = min(target, current_min + fairness)
        step = target - old
        if step <= _EPS:
            blocked[i] = True
            continue
        rate = w_l[i] * rate
        if rate > 1e-300:
            step = min(step, (expenditure - budget) / rate)
        new = old + step
        expenditure -= rate * step
        deltas_l[i] = new
        del ordered[bsearch(ordered, old)]
        insort(ordered, new)
        steps += 1

        at_limit = fairness is not None and new >= ordered[0] + fairness - _EPS
        if new >= d_max - _EPS:
            pass  # throttler maxed out; retired
        elif at_limit:
            blocked[i] = True
        else:
            heappush(heap, (-gain(i, new), counter, i))
            counter += 1

        new_min = ordered[0]
        if fairness is not None and new_min > current_min + _EPS and blocked:
            for j in list(blocked):
                if deltas_l[j] < new_min + fairness - _EPS:
                    del blocked[j]
                    heappush(heap, (-gain(j, deltas_l[j]), counter, j))
                    counter += 1

    return np.array(deltas_l, dtype=np.float64), expenditure, steps
