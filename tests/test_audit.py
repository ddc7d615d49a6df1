"""Cap-compliance auditor: evidence windows, trust state machine, envelope.

Unit tests drive :class:`~repro.core.audit.CapComplianceAuditor` directly
with a synthetic metering plane (no simulator), so every edge of the state
machine is pinned without multi-second runs; a small integration test then
checks the manager wiring end-to-end against a real stuck actuator.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.budget.base import JobBudgetRequest
from repro.core import audit
from repro.core.audit import (
    AUDIT_WINDOW,
    CAP_TOLERANCE,
    CLEAR_ROUNDS,
    GUARDBAND,
    MIN_REPLAY_EPOCHS,
    PROBE_MARGIN,
    QUARANTINE_ROUNDS,
    QUARANTINED,
    REHABILITATING,
    SUSPECT,
    SUSPECT_ROUNDS,
    TRUST_STATES,
    TRUSTED,
    CapComplianceAuditor,
)
from repro.faults.events import ByzantineModel, MeterDrift, StuckActuator
from repro.faults.schedule import FaultSchedule
from repro.modeling.quadratic import QuadraticPowerModel
from tests.goldenlib import run_windowed_and_stepped

P_MIN, P_MAX = 140.0, 280.0
#: Rounds (1 s each) before the first verdict: one full evidence window.
WINDOW = int(AUDIT_WINDOW)
#: Rounds of flagrant overdraw after which a trusted job is quarantined.
TO_QUARANTINE = WINDOW + 1 + SUSPECT_ROUNDS


class FakeMeter:
    """Cumulative per-job energy counter the tests control directly."""

    def __init__(self, nodes=(0, 1)):
        self.energy = 0.0
        self.nodes = tuple(nodes)
        self.power = 0.0  # W over all the job's nodes
        self.offline = False

    def advance(self, dt):
        self.energy += self.power * dt

    def __call__(self, job_id):
        if self.offline:
            return None
        return self.energy, self.nodes


def make_auditor(meter):
    return CapComplianceAuditor(job_meter=meter)


def make_record(job_id="j0", nodes=2, last_cap=150.0, **extra):
    return SimpleNamespace(
        job_id=job_id,
        link=object(),  # connected: the auditor skips a linkless record
        nodes=nodes,
        last_cap=last_cap,
        last_status=None,
        online_model=None,
        believed_p_max=P_MAX,
        **extra,
    )


def make_status(now, epochs, cap, power):
    return SimpleNamespace(
        timestamp=now, epoch_count=epochs, applied_cap=cap,
        measured_power=power,
    )


def drive(auditor, meter, record, rounds, *, start=0.0, dt=1.0, status=None):
    """Advance ``rounds`` control rounds; returns the final time."""
    now = start
    for _ in range(rounds):
        now += dt
        meter.advance(dt)
        if status is not None:
            record.last_status = status(now)
        auditor.audit_round(now, {record.job_id: record})
    return now


#: Row -> (the constant that replaced the constructor parameter, the range
#: the parameter's check enforced).
RANGES = {
    "window": (audit.AUDIT_WINDOW, lambda v: v > 0),
    "tolerance": (audit.CAP_TOLERANCE, lambda v: v >= 0),
    "guardband": (audit.GUARDBAND, lambda v: v >= 0),
    "mismatch_tolerance": (audit.MISMATCH_TOLERANCE, lambda v: v > 0),
    "model_error": (audit.MODEL_ERROR, lambda v: v > 0),
    "min_epochs": (audit.MIN_REPLAY_EPOCHS, lambda v: v >= 1),
    "suspect_rounds": (audit.SUSPECT_ROUNDS, lambda v: v >= 1),
    "quarantine_rounds": (audit.QUARANTINE_ROUNDS, lambda v: v >= 1),
    "clear_rounds": (audit.CLEAR_ROUNDS, lambda v: v >= 1),
    "probe_margin": (audit.PROBE_MARGIN, lambda v: 0.0 < v < 1.0),
}


class TestKnobValidation:
    @pytest.mark.parametrize(
        "knob, value",
        [
            ("window", 0.0),
            ("tolerance", -0.1),
            ("guardband", -1.0),
            ("mismatch_tolerance", 0.0),
            ("model_error", -0.5),
            ("min_epochs", 0),
            ("suspect_rounds", 0),
            ("quarantine_rounds", 0),
            ("clear_rounds", 0),
            ("probe_margin", 0.0),
            ("probe_margin", 1.0),
        ],
    )
    def test_bad_knob_names_field(self, knob, value):
        """Each threshold is a module constant inside the range its
        constructor check used to enforce; the row's value is outside it."""
        constant, in_range = RANGES[knob]
        assert in_range(constant) and not in_range(value)

    def test_force_state_rejects_unknown(self):
        auditor = make_auditor(FakeMeter())
        with pytest.raises(ValueError, match="unknown trust state"):
            auditor.force_state("j0", "parole")


class TestStateMachine:
    def test_compliant_job_stays_trusted(self):
        meter, record = FakeMeter(), make_record(last_cap=150.0)
        meter.power = 150.0 * 2  # exactly at cap
        auditor = make_auditor(meter)
        drive(auditor, meter, record, WINDOW + 20)
        assert auditor.state("j0") == TRUSTED
        assert auditor.transitions == []
        assert auditor.violations_total == 0

    def test_warmup_window_tolerates_cold_start(self):
        """No verdicts before a full evidence window, however bad the draw."""
        meter, record = FakeMeter(), make_record(last_cap=150.0)
        meter.power = P_MAX * 2  # flagrant overdraw from the first second
        auditor = make_auditor(meter)
        drive(auditor, meter, record, WINDOW)
        assert auditor.state("j0") == TRUSTED
        assert auditor.violations_total == 0

    def test_overdraw_escalates_to_quarantine(self):
        meter, record = FakeMeter(), make_record(last_cap=150.0)
        meter.power = P_MAX * 2  # wedged-open actuator
        auditor = make_auditor(meter)
        drive(auditor, meter, record, TO_QUARANTINE + 5)
        assert auditor.state("j0") == QUARANTINED
        states = [(t.old, t.new) for t in auditor.transitions]
        assert states == [(TRUSTED, SUSPECT), (SUSPECT, QUARANTINED)]
        assert all(t.reason == "cap-overdraw" for t in auditor.transitions)
        assert auditor.quarantines_total == 1

    def test_setup_phase_underdraw_never_violates(self):
        """Idle-level draw far below the cap is setup/teardown, not fraud."""
        meter, record = FakeMeter(), make_record(last_cap=250.0)
        meter.power = 60.0  # idle draw, both nodes together
        auditor = make_auditor(meter)
        drive(auditor, meter, record, WINDOW + 20)
        assert auditor.state("j0") == TRUSTED
        assert auditor.violations_total == 0

    def test_transient_spike_clears_back_to_trusted(self):
        """A short excursion reaches suspect but never quarantine.

        The spike is one round shorter than the window and just tall enough
        that the windowed draw crosses the overdraw line only while all of
        it is inside: two violating rounds, fewer than ``SUSPECT_ROUNDS``.
        """
        assert SUSPECT_ROUNDS > 2
        meter, record = FakeMeter(), make_record(last_cap=150.0)
        meter.power = 150.0 * 2
        auditor = make_auditor(meter)
        now = drive(auditor, meter, record, WINDOW + 5)
        spike = WINDOW - 1
        line = (150.0 * CAP_TOLERANCE + GUARDBAND) * WINDOW  # W·s per node
        meter.power = (150.0 + line / (spike - 0.5)) * 2
        now = drive(auditor, meter, record, spike, start=now)
        meter.power = 150.0 * 2
        drive(auditor, meter, record, WINDOW + CLEAR_ROUNDS, start=now)
        assert auditor.state("j0") == TRUSTED
        kinds = [(t.old, t.new) for t in auditor.transitions]
        assert kinds == [(TRUSTED, SUSPECT), (SUSPECT, TRUSTED)]

    def test_lowered_cap_is_not_retroactive(self):
        """Draw legal under the old cap must not convict after a cut."""
        meter, record = FakeMeter(), make_record(last_cap=250.0)
        meter.power = 250.0 * 2
        auditor = make_auditor(meter)
        now = drive(auditor, meter, record, WINDOW + 5)
        # The manager cuts the cap; the job follows within one round.
        record.last_cap = 150.0
        meter.power = 150.0 * 2
        drive(auditor, meter, record, WINDOW + 5, start=now)
        assert auditor.state("j0") == TRUSTED
        assert auditor.violations_total == 0

    def test_compliant_probe_rehabilitates(self):
        meter, record = FakeMeter(), make_record(last_cap=150.0)
        meter.power = P_MAX * 2
        auditor = make_auditor(meter)
        now = drive(auditor, meter, record, TO_QUARANTINE + 5)
        assert auditor.state("j0") == QUARANTINED
        # The actuator heals: it now follows the probe ratchet down.
        _, probe = auditor.envelope(record)
        record.last_cap = probe
        meter.power = probe * 2 * 0.95
        drive(auditor, meter, record, WINDOW + QUARANTINE_ROUNDS + CLEAR_ROUNDS,
              start=now)
        assert auditor.state("j0") == TRUSTED
        states = [t.new for t in auditor.transitions]
        assert states == [SUSPECT, QUARANTINED, REHABILITATING, TRUSTED]

    def test_stuck_actuator_never_rehabilitates(self):
        meter, record = FakeMeter(), make_record(last_cap=150.0)
        meter.power = P_MAX * 2
        auditor = make_auditor(meter)
        now = drive(auditor, meter, record, TO_QUARANTINE + 5)
        _, probe = auditor.envelope(record)
        record.last_cap = probe  # probe dispatched, but the draw never moves
        drive(auditor, meter, record, 2 * WINDOW, start=now)
        assert auditor.state("j0") == QUARANTINED
        assert auditor.transitions[-1].new == QUARANTINED

    def test_relapse_during_rehabilitation_requarantines(self):
        """Rehabilitation comes well inside one window of the heal, so what
        re-quarantines there is a relapse above the draw first convicted."""
        meter, record = FakeMeter(), make_record(last_cap=150.0)
        meter.power = 200.0 * 2  # wedged part-way open
        auditor = make_auditor(meter)
        now = drive(auditor, meter, record, TO_QUARANTINE + 5)
        # Exactly enough compliant rounds to reach rehabilitating, the
        # actuator drawing each probe the ratchet dispatches…
        while auditor.state("j0") != REHABILITATING:
            record.last_cap = auditor.envelope(record)[1]
            meter.power = record.last_cap * 2
            now = drive(auditor, meter, record, 1, start=now)
        # …then it wedges fully open, and is caught before trust returns.
        meter.power = P_MAX * 2
        while auditor.state("j0") == REHABILITATING:
            now = drive(auditor, meter, record, 1, start=now)
        assert auditor.state("j0") == QUARANTINED

    def test_completed_job_is_forgotten(self):
        meter, record = FakeMeter(), make_record(last_cap=150.0)
        meter.power = P_MAX * 2
        auditor = make_auditor(meter)
        now = drive(auditor, meter, record, TO_QUARANTINE + 5)
        assert auditor.state("j0") == QUARANTINED
        auditor.audit_round(now + 1.0, {})  # job left the cluster
        assert auditor.state("j0") == TRUSTED  # unknown ⇒ trusted

    def test_requeue_onto_new_nodes_resets_evidence(self):
        meter, record = FakeMeter(), make_record(last_cap=150.0)
        meter.power = P_MAX * 2
        auditor = make_auditor(meter)
        now = drive(auditor, meter, record, WINDOW - 1)
        meter.nodes = (2, 3)  # requeued elsewhere: counters incomparable
        meter.energy = 0.0
        drive(auditor, meter, record, WINDOW - 1, start=now)
        assert auditor.violations_total == 0  # both windows still cold

    def test_meter_gap_resets_evidence(self):
        meter, record = FakeMeter(), make_record(last_cap=150.0)
        meter.power = P_MAX * 2
        auditor = make_auditor(meter)
        now = drive(auditor, meter, record, WINDOW - 1)
        meter.offline = True
        now = drive(auditor, meter, record, 2, start=now)
        meter.offline = False
        drive(auditor, meter, record, WINDOW - 1, start=now)
        assert auditor.violations_total == 0


class TestAuditStage:
    def test_a_rehabilitating_request_changes_only_its_model(self):
        """``audit_stage`` swaps a distrusted job's shipped model for the
        believed one with ``_replace``: every other field is kept, and the
        request is still a ``JobBudgetRequest``."""
        believed = QuadraticPowerModel.from_anchors(1.0, 1.5, P_MIN, P_MAX)
        shipped = QuadraticPowerModel.from_anchors(1.0, 1.1, P_MIN, P_MAX)
        jobs = {j: make_record(j, believed_model=believed) for j in ("j0", "j1")}
        auditor = make_auditor(FakeMeter())
        auditor.force_state("j0", REHABILITATING)
        requests = [JobBudgetRequest(j, 2, shipped, P_MIN + 5, P_MAX - 5) for j in jobs]
        rnd = SimpleNamespace(
            time=1.0, jobs=jobs, report=lambda *a, **k: None,
            stale=[], dormant=[], active=[], requests=requests,
        )
        auditor.audit_stage(rnd)
        assert auditor.state("j0") == REHABILITATING
        swapped, kept = rnd.requests
        assert type(swapped) is JobBudgetRequest
        assert swapped == JobBudgetRequest("j0", 2, believed, P_MIN + 5, P_MAX - 5)
        assert kept is requests[1]


class TestMeterCrossCheck:
    def test_underreporting_meter_is_caught(self):
        meter, record = FakeMeter(), make_record(last_cap=160.0)
        meter.power = 160.0 * 2  # true draw: at cap, demonstrably active
        auditor = make_auditor(meter)
        drive(
            auditor, meter, record, WINDOW + 5,
            status=lambda now: make_status(now, 0, 160.0, 100.0),  # claims 100W
        )
        assert auditor.state("j0") != TRUSTED
        assert any("meter-mismatch" in t.reason for t in auditor.transitions)

    def test_no_meter_check_at_idle_draw(self):
        """Relative comparison at setup/teardown draw is meaningless."""
        meter, record = FakeMeter(), make_record(last_cap=160.0)
        meter.power = 80.0  # idle-ish: below P_NODE_MIN per node
        auditor = make_auditor(meter)
        drive(
            auditor, meter, record, WINDOW + 5,
            status=lambda now: make_status(now, 0, 160.0, 5.0),
        )
        assert auditor.state("j0") == TRUSTED


class TestModelPlausibility:
    def _status_factory(self, cap, tpe):
        def factory(now):
            return make_status(now, int(now / tpe), cap, cap * 2)
        return factory

    def test_fabricated_fast_model_is_caught(self):
        """A model claiming half the observed time loses everywhere."""
        meter, record = FakeMeter(), make_record(last_cap=160.0)
        meter.power = 160.0 * 2
        record.online_model = SimpleNamespace(time_per_epoch=lambda p: 0.5)
        auditor = make_auditor(meter)
        drive(auditor, meter, record, WINDOW + 5,
              status=self._status_factory(160.0, 1.0))
        assert any(
            "model-implausible" in t.reason for t in auditor.transitions)

    def test_stale_but_honest_model_keeps_its_alibi(self):
        """Accurate in a visited regime ⇒ regime veto blocks conviction.

        The fit was trained (and is accurate) at 250 W; the job is then
        squeezed to 150 W where the same fit is ~50 % off in absolute
        seconds/epoch — the shape of an honest stale model, not a lie.
        """
        meter, record = FakeMeter(), make_record(last_cap=250.0)
        meter.power = 250.0 * 2
        record.online_model = SimpleNamespace(time_per_epoch=lambda p: 1.0)
        auditor = make_auditor(meter)
        now = drive(auditor, meter, record, WINDOW + 5,
                    status=self._status_factory(250.0, 1.0))
        record.last_cap = 150.0
        meter.power = 150.0 * 2
        # Observed tpe doubles at the lower cap; the model still says 1.0.
        def squeezed(t):
            return make_status(t, int(now / 1.0 + (t - now) / 2.0),
                               150.0, 300.0)
        drive(auditor, meter, record, WINDOW + 5, start=now, status=squeezed)
        assert not any(
            "model-implausible" in t.reason for t in auditor.transitions)

    def test_no_conviction_without_progress_evidence(self):
        """MIN_REPLAY_EPOCHS gates the replay: too few epochs ⇒ no verdict.

        One epoch short of the gate per window, while enough intervals
        accumulate that the regime map has a populated bucket the absurd
        model disagrees with (no alibi to hide behind)."""
        meter, record = FakeMeter(), make_record(last_cap=160.0)
        meter.power = 160.0 * 2
        record.online_model = SimpleNamespace(time_per_epoch=lambda p: 0.01)
        auditor = make_auditor(meter)
        tpe = AUDIT_WINDOW / (MIN_REPLAY_EPOCHS - 1)
        drive(auditor, meter, record, 4 * WINDOW,
              status=self._status_factory(160.0, tpe))
        assert not any(
            "model-implausible" in t.reason for t in auditor.transitions)


class TestEnvelope:
    def test_envelope_uses_metered_draw_plus_guardband(self):
        meter, record = FakeMeter(), make_record(last_cap=150.0)
        meter.power = 400.0
        auditor = make_auditor(meter)
        drive(auditor, meter, record, WINDOW + 5)
        reserved, cap = auditor.envelope(record)
        assert reserved == pytest.approx(400.0 + GUARDBAND * 2, rel=0.05)
        assert cap == pytest.approx(200.0 * (1 - PROBE_MARGIN), rel=0.05)  # probe shave

    def test_envelope_probe_clamps_to_platform_floor(self):
        meter, record = FakeMeter(), make_record(last_cap=P_MIN)
        meter.power = P_MIN * 2 * 0.9
        auditor = make_auditor(meter)
        drive(auditor, meter, record, WINDOW + 5)
        _, cap = auditor.envelope(record)
        assert cap == P_MIN  # never probes below the platform minimum

    def test_envelope_without_evidence_falls_back_to_last_cap(self):
        auditor = make_auditor(FakeMeter())
        record = make_record(last_cap=200.0)
        reserved, _ = auditor.envelope(record)
        assert reserved == pytest.approx(200.0 * 2 + GUARDBAND * 2)


class TestRogueFaultVocabulary:
    def test_byzantine_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            ByzantineModel(time=10.0, mode="sneaky")

    def test_rogue_durations_validated(self):
        for event in (ByzantineModel, StuckActuator, MeterDrift):
            with pytest.raises(ValueError, match="duration"):
                event(time=10.0, duration=0.0)

    def test_meter_drift_rates_validated(self):
        with pytest.raises(ValueError, match="factor_rate"):
            MeterDrift(time=10.0, factor_rate=math.nan)
        with pytest.raises(ValueError, match="offset_rate"):
            MeterDrift(time=10.0, offset_rate=math.inf)

    def test_random_schedule_rogue_knobs_validated(self):
        """A rogue template's rate is checked by ``random``, its window by
        the template itself, and its drift ramp is drawn with either sign."""
        for event in (ByzantineModel, StuckActuator, MeterDrift):
            with pytest.raises(ValueError, match=f"{event.__name__} rate"):
                FaultSchedule.random(
                    100.0, seed=0, rates={event(time=0.0): -0.1})
        with pytest.raises(ValueError, match="duration"):
            ByzantineModel(time=0.0, duration=0.0)
        drifts = FaultSchedule.random(
            2000.0, seed=0,
            rates={MeterDrift(time=0.0, factor_rate=-0.004, duration=90.0): 0.1},
        )
        assert {e.factor_rate for e in drifts} == {0.004, -0.004}

    def test_random_schedule_draws_rogue_events(self):
        rates = {
            ByzantineModel(time=0.0, duration=90.0): 1 / 200.0,
            StuckActuator(time=0.0, duration=90.0): 1 / 200.0,
            MeterDrift(time=0.0, factor_rate=0.004, duration=90.0): 1 / 200.0,
        }
        sched = FaultSchedule.random(2000.0, seed=5, rates=rates)
        byz = sched.events_of(ByzantineModel)
        stuck = sched.events_of(StuckActuator)
        drift = sched.events_of(MeterDrift)
        assert byz and stuck and drift
        assert all(e.duration == 90.0 for e in byz + stuck + drift)
        # The same seed must redraw the same schedule (replayability).
        again = FaultSchedule.random(2000.0, seed=5, rates=rates)
        assert again == sched


class TestManagerIntegration:
    def _run(self, *, audit_enabled, fault_schedule=None, seed=0):
        from repro.budget.even_slowdown import EvenSlowdownBudgeter
        from repro.core.framework import (
            AnorConfig, AnorSystem, precharacterized_models)
        from repro.core.targets import ConstantTarget
        from repro.modeling.classifier import JobClassifier

        system = AnorSystem(
            budgeter=EvenSlowdownBudgeter(),
            target_source=ConstantTarget(4 * 170.0),
            classifier=JobClassifier(precharacterized_models()),
            config=AnorConfig(
                num_nodes=4, seed=seed, feedback_enabled=True,
                audit_enabled=audit_enabled,
            ),
            fault_schedule=fault_schedule,
        )
        system.submit_now("bt-0", "bt")
        system.submit_now("sp-1", "sp")
        result = system.run(until_idle=True, max_time=7200.0)
        return system, result

    def test_stuck_actuator_is_quarantined_and_contained(self):
        schedule = FaultSchedule([StuckActuator(time=60.0)])
        system, result = self._run(
            audit_enabled=True, fault_schedule=schedule)
        auditor = system.manager.auditor
        quarantines = [
            t for t in auditor.transitions if t.new == QUARANTINED]
        assert quarantines, "the wedged actuator was never quarantined"
        assert quarantines[0].time <= 60.0 + 60.0  # bounded detection
        assert len(result.completed) == 2  # quarantine ≠ starvation
        round_ = system.manager.last_round
        assert round_ is not None  # manager ran; accounting field exists
        assert hasattr(round_, "quarantined_jobs")

    def test_clean_run_never_quarantines(self):
        system, result = self._run(audit_enabled=True)
        assert system.manager.auditor.transitions == []
        assert len(result.completed) == 2

    def test_audit_off_builds_no_auditor(self):
        system, _ = self._run(audit_enabled=False)
        assert system.manager.auditor is None


class TestBitIdentity:
    def _build(self, *, audit_enabled, fault_schedule=None, **periods):
        from repro.budget.even_slowdown import EvenSlowdownBudgeter
        from repro.core.framework import (
            AnorConfig, AnorSystem, precharacterized_models)
        from repro.core.targets import ConstantTarget
        from repro.modeling.classifier import JobClassifier

        system = AnorSystem(
            budgeter=EvenSlowdownBudgeter(),
            target_source=ConstantTarget(4 * 170.0),
            classifier=JobClassifier(precharacterized_models()),
            config=AnorConfig(
                num_nodes=4, seed=7, feedback_enabled=True,
                audit_enabled=audit_enabled, **periods,
            ),
            fault_schedule=fault_schedule,
        )
        system.submit_now("bt-0", "bt")
        system.submit_now("cg-1", "cg")
        return system

    def test_observing_auditor_leaves_clean_runs_bit_identical(self):
        """With nothing to quarantine the auditor must be a pure observer."""
        off, on = (
            self._build(audit_enabled=audit).run(until_idle=True, max_time=7200.0)
            for audit in (False, True)
        )
        assert np.array_equal(off.power_trace, on.power_trace)

    def test_tick_and_event_modes_agree_with_audit_on_under_attack(self):
        schedule = FaultSchedule([StuckActuator(time=60.0)])
        # Every period above the tick, so ``run()`` has windows to batch.
        (_, event), (_, tick) = run_windowed_and_stepped(
            lambda: self._build(
                audit_enabled=True, fault_schedule=schedule,
                agent_period=2.0, endpoint_period=2.0, manager_period=4.0,
            ),
            until_idle=True, max_time=7200.0,
        )
        assert np.array_equal(tick.power_trace, event.power_trace)
