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
   tie-break among equal heap keys.  A query-free region's entries are
   all unbounded unless a zero rate ends the run, so they form a
   closed-form *head* that needs no table and no sort (:func:`_head`).
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

One pipeline (:func:`_solve`: the head, then tables → order → chain →
cut on the horizon for what is left) serves the final throttler solve
(one problem, fairness) and GRIDREDUCE's stacked CALCERRGAIN rows
alike.  Everything the sort cannot prove is delegated, never
approximated:

* a pop whose budget-landing test fires (the usual way a run ends),
  or a fairness constraint about to engage, hands off to
  :func:`_continue_scalar` — the reference loop restarted from
  reconstructed state (deltas, expenditure, heap with
  order-preserving counters), which finishes the run exactly;
* a cross-region tie among the prefix's finite keys (where FIFO order
  depends on push history the sort cannot see) runs the rest of the
  problem in that loop, from the head's end.

Either way the result is bit-identical to the reference loop — enforced
by the equivalence suites in ``tests/test_adapt_vector.py`` and
``tests/test_greedy_horizon.py``.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass

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
    trapping (:func:`repro.sanitize.vector_errstate`); the landing-step
    divisions are masked, so they divide by no zero either way.
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
    its whole total as expenditure and no table.  Regions with no query
    mass have infinite gains down the whole knot path and would defeat
    any horizon: every open row with such regions pops them first, in
    closed form (:func:`_head`).  What is left of the rows builds only
    ``horizon.columns(κ)`` knot-path columns per region; rows whose
    truncated solve is not *proved* equal to the full one (see
    :func:`_solve_rows`) are solved again over all κ columns.  Only a
    zero rate (or an underflowing ``w·r``), which ends an infinite run
    early, sends a row with query-free regions through the sort at full
    κ.  The depth the cut windows consumed becomes the next call's hint.
    """
    if horizon is None:
        horizon = GreedyHorizon()
    p_count, a = weights.shape
    totals = weights.sum(axis=1)
    budgets = z * totals
    # The no-pop result; _head and _solve_rows overwrite the open rows.
    thresholds = np.full((p_count, a), pw.delta_min, dtype=np.float64)
    expenditure = totals.copy()
    steps = np.zeros(p_count, dtype=np.int64)
    out = (thresholds, expenditure, steps)
    open_rows = np.flatnonzero(~(totals <= budgets + _EPS))
    if open_rows.size:
        sched = _schedule_for(pw)
        k = sched.n_entries
        unbounded = (m <= 1e-300) & (weights > 0)
        # fl(w·r) is monotone in r: positive at the smallest rate, the
        # gain is infinite on every segment.
        head = unbounded & (weights * sched.rate_at.min() > 0)
        full = (unbounded & ~head).any(axis=1)
        head[full] = False
        start = totals
        headed = head[open_rows].any(axis=1)
        if headed.any():
            start = totals.copy()
            rows = open_rows[headed]
            horizon.counts.head_entries += k * int(head[rows].sum())
            going = _head(out, rows, head, weights, m, start, budgets, pw, sched, fairness)
            open_rows = np.concatenate((open_rows[~headed], going))
        problem = (weights, m, start, budgets, pw, sched, fairness, head)

        h = horizon.columns(k)
        quick = open_rows[~full[open_rows]]
        rows = open_rows
        depth = np.zeros(p_count, dtype=np.int64)
        retried = 0
        if h < k and quick.size:
            proved, depth[quick], built = _solve_rows(out, quick, h, *problem)
            horizon.counts.table_entries += built
            retried = quick.size - int(proved.sum())
            rows = np.concatenate((open_rows[full[open_rows]], quick[~proved]))
        if rows.size:
            _, depth[rows], built = _solve_rows(out, rows, k, *problem)
            horizon.counts.table_entries += built
        horizon.counts.horizon_retries += retried
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


def _head_pops(ids: np.ndarray, sched: _SegmentSchedule) -> tuple[np.ndarray, np.ndarray]:
    """The head of regions ``ids`` in pop order — ``(segment, region)``
    round-robin, the heap's FIFO tie-break — and which pops advance."""
    return np.tile(ids, sched.n_entries), np.repeat(sched.full_step > 0, ids.size)


def _head(
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
    rows: np.ndarray,
    head: np.ndarray,
    weights: np.ndarray,
    m: np.ndarray,
    start: np.ndarray,
    budgets: np.ndarray,
    pw: PiecewiseLinearReduction,
    sched: _SegmentSchedule,
    fairness: float | None,
) -> np.ndarray:
    """Pop the query-free regions (``head``) of ``rows`` in closed form.

    Their entries all carry infinite keys, so they pop before every
    finite one in ``(segment, region)`` order: the head needs no table
    and no sort.  Its chain is one ``subtract.accumulate`` over a dense,
    segment-major ``(rows, κ·A)`` layout in which the other regions'
    slots subtract exactly 0.0 — ``x − 0.0 == x``, so the fold is the
    heap's, subtraction for subtraction.  A run that ends in the head
    (budget met, clean landing) is assembled here; a landing with a
    residue or a fairness engagement continues in the scalar loop from
    the head's pops.  Returns the rows that go on past the head, with
    the expenditure they enter the sort with in ``start`` (a heap that
    empties with the head is among them: the sort pass stops it at once).
    """
    thresholds, expenditure, steps = out
    k, a = sched.n_entries, weights.shape[1]
    r_count, n = rows.size, k * a
    hd, bud = head[rows], budgets[rows]
    # Slot s·A + i is region i's s-th pop: fl(w·S[s]), then · step.
    full_step = np.repeat(sched.full_step, a)
    wr = np.tile(np.where(hd, weights[rows], 0.0), k)
    wr *= np.repeat(sched.rate_at, a)
    chain = np.empty((r_count, n + 1))
    chain[:, 0] = start[rows]
    np.multiply(wr, full_step, out=chain[:, 1:])
    np.subtract.accumulate(chain, axis=1, out=chain)

    # Cuts as dense slot counts: the pops consumed before the run stops
    # (``beyond``: not in the head).  ``term``: the first chain value at
    # or under the budget; ``land``: the first partial landing (one
    # masked divide); ``engage``: fairness could act.  Slot order is pop
    # order, so the reference's tie rules carry over: ``term`` wins ties.
    beyond = n + 1
    term = beyond - (chain <= (bud + _EPS)[:, None]).sum(axis=1)
    excess = chain[:, :-1] - bud[:, None]
    lands = wr > 1e-300
    excess /= np.where(lands, wr, 1.0)
    lands &= excess < full_step
    land = np.where(lands.any(axis=1), lands.argmax(axis=1), beyond)
    engage = beyond
    if fairness is not None:  # the final solve: one problem
        # The head pops segment s as one block and Δ⊳ moves only between
        # blocks (it stays Δ⊢ unless every region is in the head), so
        # fairness engages at the first pop of the first block that the
        # one-region schedule engages.
        ids = np.flatnonzero(hd[0])
        s = _fairness_engagement(sched, np.arange(k), k, 1, ids.size == a, fairness)
        if s < k:
            engage = s * a + int(ids[0])
    cut = np.minimum(np.minimum(term, land), engage)
    going = cut > n
    start[rows[going]] = chain[going, n]
    if going.all():
        return rows

    # Region i popped its entries s with s·A + i < cut.
    popped = np.minimum((cut[:, None] + (a - 1) - np.arange(a)) // a, k) * hd
    counts = np.minimum(popped, sched.n_advances)
    deltas = sched.path_vals[counts]
    rowsel = np.arange(r_count)
    exp_at = chain[rowsel, np.minimum(cut, n)]
    rate = wr[rowsel, np.minimum(cut, n - 1)]
    step = (exp_at - bud) / np.where(rate > 1e-300, rate, 1.0)
    exp_land = exp_at - rate * step
    landed = (land < np.minimum(term, engage)) & (exp_land <= bud + _EPS)
    lr = np.flatnonzero(landed)
    if lr.size:
        deltas[lr, cut[lr] % a] = sched.delta_at[cut[lr] // a] + step[lr]
    done = landed | (term <= np.minimum(cut, n))
    thresholds[rows[done]] = deltas[done]
    expenditure[rows[done]] = np.where(landed, exp_land, exp_at)[done]
    steps[rows[done]] = (counts.sum(axis=1) + landed)[done]

    for r in np.flatnonzero(~(done | going)):
        pops, advancing = _head_pops(np.flatnonzero(hd[r]), sched)
        n_pops = int(popped[r].sum())
        row = rows[r]
        thresholds[row], expenditure[row], steps[row] = _continue_scalar(
            pw, sched, weights[row], m[row], float(chain[r, cut[r]]), float(bud[r]),
            fairness, pops[:n_pops], advancing[:n_pops],
        )
    return rows[going]


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
    head: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Solve ``rows`` on the first ``h`` knot-path columns of every region.

    The one tables → order → chain → cut pipeline.  ``totals`` is the
    expenditure a row enters it with; the ``head`` regions are already
    popped to the end of the knot path (:func:`_head`) and sit out.
    Returns, per row, whether the result is *proved* and the knot-path
    depth its cut window consumed, plus the number of live table entries
    built; proved rows are written into ``out`` = (thresholds,
    expenditure, steps).

    **Horizon lemma.**  Keys are prefix minima and the sort is stable,
    so every entry of a region beyond column ``h−1`` sorts after that
    region's column ``h−1`` entry: up to and including the first
    column-``h−1`` entry, the truncated pop order *is* the full-κ pop
    order, entry for entry and subtraction for subtraction.  A row is
    proved when its cut window — the prefix through the cut, extended
    over the equal-key run straddling it — ends there or earlier.
    """
    hr = head[rows]
    w = np.where(hr, 0.0, weights[rows])
    mm, tot, bud = m[rows], totals[rows], budgets[rows]
    thresholds, expenditure, steps = out
    r_count, a = w.shape
    k = sched.n_entries
    keys, wr = _entry_tables(w, mm, sched, h)
    # Regions never pushed (w ≤ 0) sort last (-inf) and spend nothing.
    live = w > 0
    all_active = bool(live.all())
    if not all_active:
        keys = np.where(live[..., None], keys, -np.inf)
        wr = np.where(live[..., None], wr, 0.0)
    n_total = a * h
    n_live = live.sum(axis=1) * h

    order = _candidate_order(keys)
    flat = order + (np.arange(r_count) * n_total)[:, None]
    region_ord = order // h
    entry_ord = order - region_ord * h
    wr_ord = wr.reshape(-1)[flat]
    keys_ord = keys.reshape(-1)[flat]
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

    sorted_live = pos < n_live[:, None]
    proved = np.ones(r_count, dtype=bool)
    if h < k:
        proved = hi <= _first_true((entry_ord == h - 1) & sorted_live, n_total + 1)
    depth = np.where(sorted_live & (pos < hi[:, None]), entry_ord + 1, 0).max(axis=1)

    # Clean-row assembly: thresholds from per-region advance counts (the
    # head regions' whole knot path included), one scattered partial
    # step for landing rows (the reference does exactly one more,
    # partial, pop and its while-condition fails).
    adv = (pos < cut[:, None]) & fs_pos
    flat_reg = (region_ord + (np.arange(r_count) * a)[:, None])[adv]
    counts = np.bincount(flat_reg, minlength=r_count * a).reshape(r_count, a)
    counts += hr * sched.n_advances
    deltas = sched.path_vals[counts]
    rowsel = np.arange(r_count)
    exp_at = chain[rowsel, cut]
    rate = wr_ord[rowsel, np.minimum(cut, n_total - 1)]
    step = (exp_at - bud) / np.where(rate > 1e-300, rate, 1.0)
    exp_land = exp_at - rate * step
    landed = (land < np.minimum(term, engage)) & (exp_land <= bud + _EPS)
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
        # Tie rows restart the reference loop from the head's end (pop
        # order ambiguous); the others continue it from the verified cut.
        start = 0 if tie[r] else int(cut[r])
        pops, advancing = _head_pops(np.flatnonzero(hr[r]), sched)
        row = rows[r]
        thresholds[row], expenditure[row], steps[row] = _continue_scalar(
            pw, sched, weights[row], m[row], float(chain[r, start]), float(bud[r]),
            fairness,
            np.concatenate((pops, region_ord[r, :start])),
            np.concatenate((advancing, fs_pos[r, :start])),
        )
    return proved, depth, int(n_live.sum())


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
    reference — erring into the exact scalar path.  A region missing
    from ``entry_ord`` (never pushed, or popped by a head before it)
    must clear ``all_active``: Δ⊳ then stays Δ⊢, earlier still.
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
    expenditure: float,
    budget: float,
    fairness: float | None,
    pops: np.ndarray,
    advancing: np.ndarray,
) -> tuple[np.ndarray, float, int]:
    """Finish a run exactly: the reference loop from reconstructed state.

    ``pops`` lists the regions of the verified prefix in pop order,
    ``advancing`` which of those pops moved a throttler, and
    ``expenditure`` is what the prefix left.  The heap is rebuilt with
    order-preserving counters — regions never popped keep their initial
    push rank, re-pushed regions are ordered by the position of their
    latest pop — so every future FIFO tie-break matches the
    uninterrupted run (the prefix was verified tie-free, making the
    reconstruction unambiguous).  Returns the final ``(thresholds,
    expenditure, steps)``.
    """
    d_min, d_max = pw.delta_min, pw.delta_max
    seg = pw.segment_size
    w_l = weights.tolist()
    m_l = m.tolist()
    l = len(w_l)
    deltas_l = sched.path_vals[np.bincount(pops[advancing], minlength=l)].tolist()
    steps = int(advancing.sum())
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
