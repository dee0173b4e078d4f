"""Unit tests for the THROTLOOP throttle-fraction controller."""

import pytest

from repro.core import ThrotLoop


class TestConstruction:
    def test_defaults(self):
        loop = ThrotLoop(queue_capacity=100)
        assert loop.z == 1.0
        assert loop.target_utilization == pytest.approx(0.99)

    def test_rejects_tiny_queue(self):
        with pytest.raises(ValueError):
            ThrotLoop(queue_capacity=1)

    def test_rejects_bad_initial_z(self):
        with pytest.raises(ValueError):
            ThrotLoop(queue_capacity=10, z=0.0)
        with pytest.raises(ValueError):
            ThrotLoop(queue_capacity=10, z=1.5)


class TestControlLaw:
    def test_overload_decreases_z(self):
        loop = ThrotLoop(queue_capacity=100)
        z = loop.step(arrival_rate=200.0, service_rate=100.0)  # rho = 2
        assert z == pytest.approx(1.0 * 0.99 / 2.0)

    def test_underload_increases_z_capped_at_one(self):
        loop = ThrotLoop(queue_capacity=100, z=0.5)
        z = loop.step(arrival_rate=50.0, service_rate=100.0)  # rho = 0.5
        assert z == pytest.approx(min(1.0, 0.5 * 0.99 / 0.5))

    def test_z_never_exceeds_one(self):
        loop = ThrotLoop(queue_capacity=10)
        for _ in range(5):
            z = loop.step(arrival_rate=1.0, service_rate=100.0)
        assert z == 1.0

    def test_z_floor_guards_collapse(self):
        loop = ThrotLoop(queue_capacity=10, z_floor=0.05)
        z = loop.step(arrival_rate=1e9, service_rate=1.0)
        assert z == pytest.approx(0.05)

    def test_exact_target_utilization_is_stable(self):
        loop = ThrotLoop(queue_capacity=100, z=0.6)
        target = loop.target_utilization
        z = loop.step_utilization(target)
        assert z == pytest.approx(0.6)

    def test_zero_arrivals_reopens_gradually(self):
        """An empty measurement period must not whipsaw the budget fully
        open; z grows by at most reopen_factor per period."""
        loop = ThrotLoop(queue_capacity=10, z=0.3)
        assert loop.step(arrival_rate=0.0, service_rate=10.0) == pytest.approx(0.6)
        assert loop.step(arrival_rate=0.0, service_rate=10.0) == 1.0

    def test_empty_period_does_not_reshed_from_scratch(self):
        """Regression: steady overload holds z low; one empty period
        (lossy uplink / churn dip) must not snap z to 1.0, which made the
        next overload period re-shed from scratch."""
        loop = ThrotLoop(queue_capacity=50)
        for _ in range(10):
            loop.step(arrival_rate=400.0, service_rate=100.0)
        settled = loop.z
        assert settled < 0.5
        loop.step(arrival_rate=0.0, service_rate=100.0)
        assert loop.z <= settled * loop.reopen_factor + 1e-12
        assert loop.z < 1.0

    def test_reopen_factor_validated(self):
        with pytest.raises(ValueError):
            ThrotLoop(queue_capacity=10, reopen_factor=1.0)

    def test_converges_under_proportional_plant(self):
        """Closed loop: arrival rate proportional to z. Must converge to
        the rate where utilization hits the target."""
        loop = ThrotLoop(queue_capacity=50)
        full_load, capacity = 300.0, 100.0
        for _ in range(20):
            arrivals = full_load * loop.z
            loop.step(arrivals, capacity)
        final_utilization = full_load * loop.z / capacity
        assert final_utilization == pytest.approx(loop.target_utilization, rel=1e-3)

    def test_reset(self):
        loop = ThrotLoop(queue_capacity=10)
        loop.step(100.0, 1.0)
        loop.reset()
        assert loop.z == 1.0


class TestValidation:
    def test_rejects_bad_rates(self):
        loop = ThrotLoop(queue_capacity=10)
        with pytest.raises(ValueError):
            loop.step(arrival_rate=-1.0, service_rate=10.0)
        with pytest.raises(ValueError):
            loop.step_utilization(-0.5)


class TestUtilizationTarget:
    """The explicit target override for latency-objective deployments."""

    def test_default_target_is_paper_rule(self):
        loop = ThrotLoop(queue_capacity=10)
        assert loop.target_utilization == pytest.approx(1.0 - 1.0 / 10)

    def test_override_replaces_derived_target(self):
        loop = ThrotLoop(queue_capacity=10, utilization_target=0.8)
        assert loop.target_utilization == pytest.approx(0.8)

    def test_override_drives_z_below_paper_target(self):
        """At measured ρ = 1−1/B (paper-stable), an 0.8 target still
        tightens z — the headroom that drains a standing queue."""
        paper = ThrotLoop(queue_capacity=100)
        tight = ThrotLoop(queue_capacity=100, utilization_target=0.8)
        rho = 1.0 - 1.0 / 100
        paper.step_utilization(rho)
        tight.step_utilization(rho)
        assert paper.z == pytest.approx(1.0)
        assert tight.z == pytest.approx(0.8 / rho)

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            ThrotLoop(queue_capacity=10, utilization_target=0.0)
        with pytest.raises(ValueError):
            ThrotLoop(queue_capacity=10, utilization_target=1.5)


class TestStalledServer:
    """Regression: μ <= 0 is a measured live condition, not a caller bug.

    ``LoadMeasurement.utilization`` deliberately reports ``inf`` for a
    dead server under load (and 0 at zero load); ``step()`` used to raise
    ``ValueError`` for the same measurement, crashing a live control loop
    on the first stalled period.  Both call paths must now agree.
    """

    def test_stalled_server_under_load_collapses_to_floor(self):
        loop = ThrotLoop(queue_capacity=10, z_floor=0.05)
        z = loop.step(arrival_rate=100.0, service_rate=0.0)
        assert z == pytest.approx(0.05)
        # Negative μ (a miscalibrated measurement) behaves the same.
        assert ThrotLoop(queue_capacity=10, z_floor=0.05).step(
            arrival_rate=1.0, service_rate=-2.0
        ) == pytest.approx(0.05)

    def test_stalled_idle_server_takes_reopen_path(self):
        loop = ThrotLoop(queue_capacity=10, z=0.3, reopen_factor=2.0)
        z = loop.step(arrival_rate=0.0, service_rate=0.0)
        assert z == pytest.approx(0.6)

    def test_step_matches_measurement_utilization_semantics(self):
        """step(λ, μ) and step_utilization(LoadMeasurement.utilization)
        must move z identically for every μ <= 0 edge case."""
        from repro.server.cq_server import LoadMeasurement

        for arrivals, mu in ((50, 0.0), (0, 0.0), (50, -1.0)):
            measurement = LoadMeasurement(
                arrivals=arrivals, processed=0, dropped=0,
                period=1.0, service_rate=mu,
            )
            via_step = ThrotLoop(queue_capacity=10, z=0.5)
            via_util = ThrotLoop(queue_capacity=10, z=0.5)
            assert via_step.step(
                measurement.arrival_rate, mu
            ) == via_util.step_utilization(measurement.utilization)

    def test_inf_utilization_does_not_poison_smoothing(self):
        """A single stalled measurement must not pin the smoothed loop at
        the floor forever (inf is absorbing under the EWMA)."""
        loop = ThrotLoop(queue_capacity=50, smoothing=0.3, z_floor=0.01)
        loop.step_utilization(loop.target_utilization)
        loop.step(arrival_rate=10.0, service_rate=0.0)  # stalled period
        assert loop.z == loop.z_floor
        for _ in range(40):
            loop.step_utilization(0.5)  # healthy again, underloaded
        assert loop.z > 0.5  # budget recovered; inf was not sticky


class TestSmoothing:
    def test_smoothing_validated(self):
        with pytest.raises(ValueError):
            ThrotLoop(queue_capacity=10, smoothing=0.0)
        with pytest.raises(ValueError):
            ThrotLoop(queue_capacity=10, smoothing=1.5)

    def test_smoothing_one_equals_raw(self):
        raw = ThrotLoop(queue_capacity=50)
        smooth = ThrotLoop(queue_capacity=50, smoothing=1.0)
        for rho in (2.0, 0.5, 1.2, 0.8):
            assert raw.step_utilization(rho) == pytest.approx(
                smooth.step_utilization(rho)
            )

    def test_spike_resistance(self):
        """A single pathological measurement moves the smoothed loop far
        less than the raw one."""
        raw = ThrotLoop(queue_capacity=50)
        smooth = ThrotLoop(queue_capacity=50, smoothing=0.2)
        steady = raw.target_utilization
        for _ in range(5):
            raw.step_utilization(steady)
            smooth.step_utilization(steady)
        raw.step_utilization(10.0)     # spike
        smooth.step_utilization(10.0)
        assert smooth.z > raw.z

    def test_smoothed_loop_still_converges(self):
        loop = ThrotLoop(queue_capacity=50, smoothing=0.3)
        full_load, capacity = 300.0, 100.0
        for _ in range(60):
            loop.step(full_load * loop.z, capacity)
        final_utilization = full_load * loop.z / capacity
        assert final_utilization == pytest.approx(loop.target_utilization, rel=0.05)

    def test_reset_clears_smoothing_state(self):
        loop = ThrotLoop(queue_capacity=50, smoothing=0.2)
        loop.step_utilization(5.0)
        loop.reset()
        assert loop._smoothed_utilization is None
