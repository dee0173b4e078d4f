"""The LIRA load shedder: GRIDREDUCE + GREEDYINCREMENT + THROTLOOP.

:class:`LiraLoadShedder` is the server-side orchestrator and the LIRA
policy itself (a :class:`~repro.shedding.policy.SheddingPolicy`).  Each
call to :meth:`LiraLoadShedder.adapt` runs one adaptation step —
partition the space from the current statistics grid, set the update
throttlers within the budget — and returns the
:class:`~repro.core.plan.SheddingPlan` to broadcast.  The throttle
fraction z can be fixed (a system-level parameter) or driven by the
embedded :class:`~repro.core.throtloop.ThrotLoop` via
:meth:`LiraLoadShedder.observe_load`; every shard keeps one as its z
controller, whichever policy serves its plans.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.core.config import LiraConfig
from repro.core.gridreduce import grid_reduce
from repro.core.greedy import GreedyResult, greedy_increment
from repro.core.incremental import IncrementalAdaptSession
from repro.core.plan import SheddingPlan
from repro.core.quadtree import RegionHierarchy
from repro.core.reduction import ReductionFunction
from repro.core.statistics_grid import StatisticsGrid
from repro.core.throtloop import ThrotLoop
from repro.shedding.policy import SheddingPolicy
from repro.timing import Stopwatch

logger = logging.getLogger(__name__)


@dataclass
class AdaptationReport:
    """Diagnostics of one adaptation step."""

    plan: SheddingPlan
    z: float
    num_regions: int
    budget_met: bool
    predicted_inaccuracy: float
    elapsed_seconds: float


class LiraLoadShedder(SheddingPolicy):
    """Server-side LIRA: computes shedding plans from grid statistics.

    Args:
        config: algorithm parameters (Table 2 defaults).
        reduction: the update-reduction function f(Δ); it is discretized
            once into κ = ``config.n_segments`` linear segments of size
            c_Δ, the form under which GREEDYINCREMENT is optimal.
        queue_capacity: B for the embedded THROTLOOP controller.
        incremental: keep :attr:`session` from round to round
            (hierarchy refresh, gain memo, trajectory replay,
            greedy/plan reuse) so adaptation cost tracks the statistics
            drift instead of the domain size; a round whose inputs did
            not change then returns the *same plan object* and an
            unchanged epoch, letting downstream broadcast layers skip
            or delta-encode the push.  ``False`` starts every round on
            a fresh session, which carries nothing: the from-scratch
            round.  Plans are bit-identical either way.
    """

    name = "LIRA"

    def __init__(
        self,
        config: LiraConfig,
        reduction: ReductionFunction,
        queue_capacity: int = 100,
        incremental: bool = False,
    ) -> None:
        if not (
            reduction.delta_min == config.delta_min
            and reduction.delta_max == config.delta_max
        ):
            raise ValueError(
                "reduction function domain must match config "
                f"[{config.delta_min}, {config.delta_max}]"
            )
        self.config = config
        self.alpha = config.resolved_alpha
        self.reduction = reduction.piecewise(config.n_segments)
        self.throtloop = ThrotLoop(queue_capacity=queue_capacity, z=1.0)
        self._fixed_z: float | None = config.z
        self.last_report: AdaptationReport | None = None
        self.incremental = incremental
        #: The adapt rounds' state (and diagnostics): the last round's
        #: session when ``incremental`` is off.
        self.session = IncrementalAdaptSession()

    def use_adaptive_throttle(self) -> None:
        """Let THROTLOOP drive z instead of the configured constant."""
        self._fixed_z = None

    def set_throttle_fraction(self, z: float) -> None:
        """Pin z to a fixed value (overriding THROTLOOP)."""
        if not (0.0 <= z <= 1.0):
            raise ValueError("z must be in [0, 1]")
        self._fixed_z = z

    def observe_load(self, arrival_rate: float, service_rate: float) -> float:
        """Feed one load measurement to THROTLOOP; returns the new z."""
        return self.throtloop.step(arrival_rate, service_rate)

    @property
    def current_z(self) -> float:
        """The throttle fraction the next adaptation will use."""
        return self._fixed_z if self._fixed_z is not None else self.throtloop.z

    def adapt(self, grid: StatisticsGrid, z: float | None = None) -> SheddingPlan:
        """One full adaptation step at ``z`` (default :attr:`current_z`);
        returns the new shedding plan.

        Runs GRIDREDUCE on the hierarchy built from ``grid``, then
        GREEDYINCREMENT over the resulting regions.  Timing and budget
        diagnostics land in :attr:`last_report`.
        """
        if grid.alpha != self.alpha:
            raise ValueError(
                f"statistics grid is {grid.alpha} cells/side, config expects "
                f"{self.alpha}"
            )
        if z is None:
            z = self.current_z
        with Stopwatch() as stopwatch:
            plan, result = self._compute_plan(grid, z)
        elapsed = stopwatch.elapsed
        logger.debug(
            "adaptation: z=%.3f regions=%d budget_met=%s inaccuracy=%.2f "
            "elapsed=%.1fms",
            z,
            plan.num_regions,
            result.budget_met,
            result.inaccuracy,
            elapsed * 1000,
        )
        # One warning per stretch of unmet rounds: the round that loses
        # the budget (or a first round without it), not every round after.
        previous = self.last_report
        if not result.budget_met and (previous is None or previous.budget_met):
            logger.warning(
                "update budget unreachable at z=%.3f: all throttlers "
                "saturated; consider raising delta_max or lowering load",
                z,
            )
        self.last_report = AdaptationReport(
            plan=plan,
            z=z,
            num_regions=plan.num_regions,
            budget_met=result.budget_met,
            predicted_inaccuracy=result.inaccuracy,
            elapsed_seconds=elapsed,
        )
        self.plan = plan
        return plan

    def _compute_plan(
        self, grid: StatisticsGrid, z: float
    ) -> tuple[SheddingPlan, GreedyResult]:
        """One partition + throttle solve on :attr:`session`.

        Stages, each skipping work the drift since the session's last
        round did not invalidate (a fresh session skips nothing):

        1. the hierarchy re-aggregated in place (its rectangles kept);
        2. GRIDREDUCE with the gain memo + trajectory replay cache;
        3. GREEDYINCREMENT via a single-entry memo keyed on the exact
           region statistics (a pure function of its inputs);
        4. plan construction: same content → the *same plan object*
           (epoch unchanged); same geometry → raster reuse with a new
           epoch; otherwise a full rebuild with a new epoch.
        """
        if not self.incremental:
            self.session = IncrementalAdaptSession()
        session = self.session
        hierarchy = session.hierarchy
        if hierarchy is None or (hierarchy.alpha, hierarchy.bounds) != (grid.alpha, grid.bounds):
            session.hierarchy = RegionHierarchy(grid)
        else:
            hierarchy.refresh(grid)
        partitioning = grid_reduce(
            session.hierarchy,
            self.config.l,
            z,
            self.reduction,
            increment=self.config.increment,
            use_speed=self.config.use_speed,
            cache=session.gridreduce,
        )
        regions = partitioning.regions
        # Bounds + coordinate list stand for the rectangles (α is fixed
        # by the config): comparing them is comparing the geometry.
        geometry = (grid.bounds, partitioning.coords)
        stats = [(reg.n, reg.m, reg.s) for reg in regions]
        greedy_key = (z, stats)
        if session.greedy_result is not None and session.greedy_key == greedy_key:
            result = session.greedy_result
        else:
            result = greedy_increment(
                regions,
                self.reduction,
                z,
                increment=self.config.increment,
                fairness=self.config.fairness,
                use_speed=self.config.use_speed,
                horizon=session.gridreduce.greedy_horizon,
            )
            session.greedy_key = greedy_key
            session.greedy_result = result
        plan_key = (geometry, stats, result.thresholds.tolist())
        session.last_plan_reused = False
        session.last_geometry_reused = False
        previous, previous_key = session.plan, session.plan_key
        if previous is not None and previous_key == plan_key:
            session.last_plan_reused = True
            return previous, result
        if previous is not None and previous_key is not None and previous_key[0] == geometry:
            session.epoch += 1
            plan = previous.with_content(regions, result.thresholds, session.epoch)
            session.last_geometry_reused = True
        else:
            if previous is not None:
                session.epoch += 1
            plan = SheddingPlan.from_regions(
                bounds=grid.bounds,
                regions=regions,
                thresholds=result.thresholds,
                resolution=grid.alpha,
                epoch=session.epoch,
            )
        session.plan = plan
        session.plan_key = plan_key
        return plan, result
