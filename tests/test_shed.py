"""Tests for the graceful-degradation ladder (DESIGN.md §10)."""

import pytest

from repro.core.framework import AnorConfig, AnorSystem
from repro.facility.shed import (
    CLEAR_ROUNDS,
    DEFAULT_CLASS,
    DEFICITS,
    ESCALATE_ROUNDS,
    RAMP_WATTS_PER_ROUND,
    SEVERITY_LEVELS,
    SHED_CLASSES,
    SHED_PLANS,
    ShedController,
    ShedLadder,
)
from repro.faults.events import (
    ByzantineModel,
    DemandResponseEmergency,
    FeederLoss,
    ThermalDerate,
)
from repro.faults.schedule import FaultSchedule


class TestPlanTable:
    def test_protected_never_evicted(self):
        """The headline guarantee is structural: no severity maps the
        protected class to preempt or kill."""
        for severity, plan in SHED_PLANS.items():
            assert plan["protected"] in ("none", "cap-to-floor"), severity

    def test_every_severity_covers_every_class(self):
        for plan in SHED_PLANS.values():
            assert set(plan) == set(SHED_CLASSES)

    def test_normal_is_a_noop(self):
        assert all(a == "none" for a in SHED_PLANS["normal"].values())

    def test_escalation_is_monotone_per_class(self):
        """Walking down the ladder never softens any class's action."""
        from repro.facility.shed import SHED_ACTIONS

        rank = {a: i for i, a in enumerate(SHED_ACTIONS)}
        for cls in SHED_CLASSES:
            actions = [SHED_PLANS[s][cls] for s in SEVERITY_LEVELS]
            assert actions == sorted(actions, key=rank.__getitem__)


def feed(ladder, supply, rounds, demand=1000.0):
    """``rounds`` rounds at ``supply``; returns the severity after each."""
    return [ladder.observe(supply, demand) for _ in range(rounds)]


class TestShedLadder:
    def test_threshold_validation(self):
        # Constants, inside the ranges their checks enforced.
        assert RAMP_WATTS_PER_ROUND > 0
        assert min(ESCALATE_ROUNDS, CLEAR_ROUNDS) >= 1
        deficits = [DEFICITS[s] for s in SEVERITY_LEVELS[1:]]
        assert deficits == sorted(set(deficits))
        assert 0.0 < deficits[0] and deficits[-1] < 1.0

    def test_one_bad_round_never_escalates(self):
        assert ESCALATE_ROUNDS > 1
        ladder = ShedLadder()
        assert feed(ladder, 700.0, ESCALATE_ROUNDS - 1)[-1] == "normal"
        assert ladder.observe(1000.0, 1000.0) == "normal"
        assert ladder.escalations == 0

    def test_sustained_deficit_jumps_to_indicated_severity(self):
        """A deep deficit must not dwell in brownout-1 on the way down."""
        ladder = ShedLadder()
        # Deficit 0.6 indicates blackstart.
        assert feed(ladder, 400.0, ESCALATE_ROUNDS)[-1] == "blackstart"
        assert ladder.escalations == 1

    def test_recovery_steps_down_one_level_per_clear_window(self):
        ladder = ShedLadder()
        feed(ladder, 300.0, ESCALATE_ROUNDS)  # 0.7 deficit -> blackstart
        assert ladder.severity == "blackstart"
        seen = feed(ladder, 1000.0, 3 * CLEAR_ROUNDS)
        wait = CLEAR_ROUNDS - 1
        assert seen == (
            ["blackstart"] * wait + ["brownout-2"]
            + ["brownout-2"] * wait + ["brownout-1"]
            + ["brownout-1"] * wait + ["normal"]
        )

    def test_round_at_current_severity_resets_recovery(self):
        ladder = ShedLadder()
        feed(ladder, 800.0, ESCALATE_ROUNDS)  # brownout-1
        feed(ladder, 1000.0, CLEAR_ROUNDS - 1)
        ladder.observe(800.0, 1000.0)  # back at brownout-1: streak resets
        feed(ladder, 1000.0, CLEAR_ROUNDS - 1)
        assert ladder.severity == "brownout-1"
        assert ladder.observe(1000.0, 1000.0) == "normal"

    def test_oscillating_feed_does_not_flap(self):
        """Alternating good/bad rounds never complete either streak."""
        assert min(ESCALATE_ROUNDS, CLEAR_ROUNDS) > 1
        ladder = ShedLadder()
        for i in range(40):
            ladder.observe(700.0 if i % 2 else 1000.0, 1000.0)
        assert ladder.severity == "normal"
        assert ladder.escalations == 0

    def test_ceiling_follows_supply_down_instantly(self):
        ladder = ShedLadder()
        ladder.observe(1000.0, 1000.0)
        ladder.observe(400.0, 1000.0)
        assert ladder.ceiling == 400.0

    def test_ceiling_recovers_at_ramp_rate(self):
        assert RAMP_WATTS_PER_ROUND == 100.0
        ladder = ShedLadder()
        ladder.observe(1000.0, 1000.0)
        ladder.observe(400.0, 1000.0)
        assert ladder.observe(1000.0, 1000.0) == ladder.severity
        assert ladder.ceiling == 500.0
        ladder.observe(1000.0, 1000.0)
        assert ladder.ceiling == 600.0
        for _ in range(10):
            ladder.observe(1000.0, 1000.0)
        assert ladder.ceiling == 1000.0  # clamped at supply, never beyond

    def test_zero_demand_leaves_severity_untouched(self):
        ladder = ShedLadder()
        assert ladder.observe(500.0, 0.0) == "normal"
        assert ladder.ceiling == 500.0

    def test_transition_log_bounded(self, monkeypatch):
        import repro.facility.shed as shed_mod

        monkeypatch.setattr(shed_mod, "TRANSITION_LOG_LIMIT", 4)
        ladder = ShedLadder()
        for _ in range(10):
            feed(ladder, 800.0, ESCALATE_ROUNDS)  # up to brownout-1
            feed(ladder, 1000.0, CLEAR_ROUNDS)  # back down
        assert len(ladder.transitions) == 4
        assert ladder.transitions_dropped == 20 - 4


class TestShedController:
    def make(self, **kwargs):
        return ShedController(
            ladder=ShedLadder(),
            classes={"cg": "preemptible", "ft": "protected"},
            **kwargs,
        )

    def observe(self, ctl, supply, rounds):
        for _ in range(rounds):
            ctl.observe(supply)

    def test_validation(self):
        with pytest.raises(ValueError, match="shed class"):
            ShedController(ladder=ShedLadder(), classes={"cg": "soft"})

    def test_class_lookup_with_default(self):
        ctl = self.make()
        assert ctl.class_of("cg") == "preemptible"
        assert ctl.class_of("ft") == "protected"
        assert ctl.class_of("bt") == DEFAULT_CLASS == "checkpointable"

    def test_action_follows_severity(self):
        ctl = self.make()
        assert ctl.action_for("cg") == "none"
        ctl.observe(600.0)  # learn high water
        self.observe(ctl, 100.0, ESCALATE_ROUNDS)  # 0.83 deficit -> blackstart
        assert ctl.severity == "blackstart"
        assert ctl.action_for("cg") == "kill"
        assert ctl.action_for("ft") == "cap-to-floor"

    def test_request_shed_idempotent_per_episode(self):
        ctl = self.make()
        assert ctl.request_shed("j1", "preempt")
        assert not ctl.request_shed("j1", "kill")
        assert ctl.requests == [(0.0, "j1", "preempt")]
        assert (ctl.preempts, ctl.kills) == (1, 0)
        with pytest.raises(ValueError, match="not a shedding action"):
            ctl.request_shed("j2", "cap-to-floor")

    def test_restore_clears_episode_and_counts(self):
        ctl = self.make()
        ctl.observe(1000.0)
        self.observe(ctl, 100.0, ESCALATE_ROUNDS)
        ctl.request_shed("j1", "preempt")
        assert ctl.active
        self.observe(ctl, 1000.0, 3 * CLEAR_ROUNDS)  # one level per window
        assert not ctl.active
        assert ctl.restores == 1
        assert ctl.request_shed("j1", "preempt")  # next episode may re-shed

    def test_fixed_nominal_overrides_high_water(self):
        ctl = ShedController(ladder=ShedLadder(), nominal_watts=2000.0)
        # 0.5 deficit against the fixed nominal.
        self.observe(ctl, 1000.0, ESCALATE_ROUNDS)
        assert ctl.severity == "blackstart"

    def test_observe_returns_ramped_ceiling(self, monkeypatch):
        monkeypatch.setattr("repro.facility.shed.RAMP_WATTS_PER_ROUND", 50.0)
        ctl = ShedController(ladder=ShedLadder())
        assert ctl.observe(1000.0) == 1000.0
        assert ctl.observe(400.0) == 400.0
        assert ctl.observe(1000.0) == 450.0


class TestConfigValidation:
    def test_defaults_pass(self):
        AnorConfig(shed_enabled=True)

    def test_bad_threshold_order(self):
        """brownout-1 < brownout-2 < blackstart."""
        assert DEFICITS["brownout-1"] < DEFICITS["brownout-2"] < DEFICITS["blackstart"]

    def test_threshold_range(self):
        assert set(DEFICITS) == set(SEVERITY_LEVELS[1:])
        assert all(0.0 < d < 1.0 for d in DEFICITS.values())

    def test_bad_default_class(self):
        assert DEFAULT_CLASS in SHED_CLASSES

    def test_bad_class_map(self):
        with pytest.raises(ValueError, match="shed_classes"):
            AnorConfig(shed_classes={"cg": "soft"})

    def test_knob_ranges(self):
        with pytest.raises(ValueError, match="shed_nominal_watts"):
            AnorConfig(shed_nominal_watts=-1.0)

    def test_off_by_default_builds_no_controller(self):
        system = AnorSystem(config=AnorConfig())
        assert system.manager.shed is None


class TestFacilityIncidents:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="magnitude"):
            FeederLoss(time=0.0, magnitude=1.0)
        with pytest.raises(ValueError, match="magnitude"):
            ThermalDerate(time=0.0, magnitude=0.0)
        with pytest.raises(ValueError, match="duration"):
            DemandResponseEmergency(time=0.0, duration=0.0)

    def test_zero_rates_keep_schedules_bit_identical(self):
        """Adding the facility templates at rate 0.0 must not perturb the
        RNG stream of a mix without them."""
        byzantine = {ByzantineModel(time=0.0): 1 / 200.0}
        old = FaultSchedule.random(600.0, seed=42, rates=byzantine)
        new = FaultSchedule.random(
            600.0,
            seed=42,
            rates={
                **byzantine,
                FeederLoss(time=0.0): 0.0,
                ThermalDerate(time=0.0): 0.0,
                DemandResponseEmergency(time=0.0): 0.0,
            },
        )
        assert list(old) == list(new)

    def test_random_schedule_draws_facility_incidents(self):
        schedule = FaultSchedule.random(
            3600.0,
            seed=5,
            rates={
                FeederLoss(time=0.0): 1 / 600.0,
                ThermalDerate(time=0.0): 1 / 600.0,
                DemandResponseEmergency(time=0.0): 1 / 600.0,
            },
        )
        kinds = {type(e) for e in schedule}
        assert kinds & {FeederLoss, ThermalDerate, DemandResponseEmergency}

    def test_overlapping_incidents_compose_multiplicatively(self):
        """Two open feed windows scale the manager's target by the product
        of their magnitudes; each restores independently."""
        seen = {}
        system = AnorSystem(
            config=AnorConfig(num_nodes=4),
            fault_schedule=FaultSchedule(
                [
                    FeederLoss(time=5.0, magnitude=0.3, duration=30.0),
                    ThermalDerate(time=10.0, magnitude=0.2, duration=10.0),
                ]
            ),
            monitors=[lambda rnd: seen.__setitem__(rnd.time, rnd.feed)],
        )
        nominal = system.target_source.target(0.0)
        for _ in range(50):
            system.step()
        assert seen[3.0] == pytest.approx(nominal)
        assert seen[8.0] == pytest.approx(nominal * 0.7)
        assert seen[15.0] == pytest.approx(nominal * 0.7 * 0.8)
        assert seen[25.0] == pytest.approx(nominal * 0.7)
        assert seen[40.0] == pytest.approx(nominal)
        log = system.faults.log_lines()
        assert any("feeder-loss start" in line for line in log)
        assert any("feeder-loss end" in line for line in log)
        assert any("thermal-derate" in line for line in log)

    def test_end_to_end_ladder_rides_a_feeder_loss(self, monkeypatch):
        """A 40 % feeder loss walks the ladder up and, after the window
        closes, recovery steps back to normal."""
        monkeypatch.setattr("repro.facility.shed.RAMP_WATTS_PER_ROUND", 200.0)
        system = AnorSystem(
            config=AnorConfig(num_nodes=4, shed_enabled=True),
            fault_schedule=FaultSchedule(
                [FeederLoss(time=10.0, magnitude=0.4, duration=20.0)]
            ),
        )
        system.submit_now("j1", "bt", nodes=4)
        system.run(duration=90.0, max_time=3600.0)
        shed = system.manager.shed
        assert shed.ladder.escalations >= 1
        assert any("brownout-2" in line for line in shed.ladder.transitions)
        assert shed.severity == "normal"
