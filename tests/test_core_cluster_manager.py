"""Tests for the cluster-tier power manager."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.budget.even_slowdown import EvenSlowdownBudgeter
from repro.core.cluster_manager import (
    CORRECTION_LIMIT_FRACTION,
    MIN_FEEDBACK_R2,
)
from repro.core.messages import BudgetMessage, GoodbyeMessage, HelloMessage, StatusMessage
from repro.core.targets import ConstantTarget, HoldLastGoodTarget
from repro.core.transport import TcpLink
from repro.durable.journal import Journal
from repro.modeling.classifier import JobClassifier
from repro.modeling.quadratic import QuadraticPowerModel
from repro.telemetry import Telemetry
from repro.workloads.nas import P_NODE_MIN
from tests.fed_manager import FedManager


def models():
    mk = lambda s, p=280.0: QuadraticPowerModel.from_anchors(2.0, s, 140.0, p)
    return {"bt": mk(1.65, 272.0), "is": mk(1.08, 235.0), "sp": mk(1.12, 240.0)}


def make_manager(*, target=840.0, total_nodes=4, **kwargs):
    return FedManager(
        budgeter=EvenSlowdownBudgeter(),
        target_source=ConstantTarget(target),
        classifier=JobClassifier(models()),
        total_nodes=total_nodes,
        **kwargs,
    )


def connect_job(manager, job_id, claimed, nodes, *, now=0.0):
    link = TcpLink(latency=0.0)
    manager.register_link(link)
    link.send_up(HelloMessage(job_id, claimed, nodes, now), now)
    return link


def send_status(link, job_id, *, t, epochs=5, power=400.0, cap=200.0, **model):
    link.send_up(
        StatusMessage(
            job_id=job_id, timestamp=t, epoch_count=epochs,
            measured_power=power, applied_cap=cap, **model,
        ),
        t,
    )


class TestRegistration:
    def test_hello_registers_job(self):
        manager = make_manager()
        connect_job(manager, "j1", "bt", 2)
        manager.step(0.0)
        assert "j1" in manager.jobs
        assert manager.jobs["j1"].believed_model.sensitivity == pytest.approx(1.65)

    def test_misclassified_claim_uses_wrong_model(self):
        manager = make_manager()
        connect_job(manager, "j1", "is", 2)  # truly BT, claims IS
        manager.step(0.0)
        assert manager.jobs["j1"].believed_model.sensitivity == pytest.approx(1.08)

    def test_goodbye_unregisters(self):
        manager = make_manager()
        link = connect_job(manager, "j1", "bt", 2)
        manager.step(0.0)
        link.send_up(GoodbyeMessage("j1", 1.0), 1.0)
        manager.step(1.0)
        assert "j1" not in manager.jobs

    def test_status_for_unknown_job_ignored(self):
        manager = make_manager()
        link = TcpLink(latency=0.0)
        manager.register_link(link)
        send_status(link, "ghost", t=0.0)
        manager.step(0.0)  # must not raise
        assert manager.jobs == {}


class TestBudgeting:
    def test_caps_sent_to_jobs(self):
        manager = make_manager()
        link1 = connect_job(manager, "a", "bt", 2)
        link2 = connect_job(manager, "b", "sp", 2)
        manager.step(0.0)
        caps1 = [m for m in link1.recv_down(0.0) if isinstance(m, BudgetMessage)]
        caps2 = [m for m in link2.recv_down(0.0) if isinstance(m, BudgetMessage)]
        assert caps1[0].job_id == "a"
        assert caps2[0].job_id == "b"

    def test_idle_nodes_reduce_available_budget(self):
        tight = make_manager(target=840.0, total_nodes=8)  # 6 idle nodes
        loose = make_manager(target=840.0, total_nodes=2)
        for manager in (tight, loose):
            link = connect_job(manager, "a", "bt", 2)
            send_status(link, "a", t=0.0, power=400.0)
            caps = manager.step(0.0)
        # Placeholder to keep caps in scope; compare the two managers:
        link_t = connect_job(tight, "b", "bt", 2)
        send_status(link_t, "b", t=1.0, power=400.0)
        caps_tight = tight.step(1.0)
        link_l = connect_job(loose, "c", "bt", 2)
        send_status(link_l, "c", t=1.0, power=400.0)
        caps_loose = loose.step(1.0)
        assert max(caps_tight.values()) < max(caps_loose.values())

    def test_dormant_job_budgeted_at_floor(self):
        """Jobs at idle power (setup/teardown) release slack (§7.2)."""
        manager = make_manager(target=840.0, total_nodes=4)
        active = connect_job(manager, "a", "bt", 2)
        dormant = connect_job(manager, "d", "sp", 2)
        send_status(active, "a", t=0.0, power=400.0)
        send_status(dormant, "d", t=0.0, power=120.0)  # idle-level draw
        caps = manager.step(0.0)
        assert caps["d"] == P_NODE_MIN
        # The active job inherits the slack: (840 - 120) / 2 nodes = 360 W,
        # clamped to its believed ceiling.
        assert caps["a"] == pytest.approx(272.0, abs=1.0)

    def test_no_jobs_returns_empty(self):
        manager = make_manager()
        assert manager.step(0.0) == {}


class TestFeedback:
    def test_online_model_replaces_believed(self):
        manager = make_manager(use_feedback=True)
        link = connect_job(manager, "a", "is", 2)
        send_status(
            link, "a", t=0.0, power=400.0,
            model_a=0.0, model_b=-0.01, model_c=5.0, model_r2=0.9,
        )
        manager.step(0.0)
        record = manager.jobs["a"]
        assert record.online_model is not None
        assert record.active_model is record.online_model

    def test_feedback_disabled_ignores_model(self):
        manager = make_manager(use_feedback=False)
        link = connect_job(manager, "a", "is", 2)
        send_status(
            link, "a", t=0.0, power=400.0,
            model_a=0.0, model_b=-0.01, model_c=5.0, model_r2=0.9,
        )
        manager.step(0.0)
        assert manager.jobs["a"].online_model is None

    def test_low_r2_model_rejected(self):
        manager = make_manager(use_feedback=True)
        link = connect_job(manager, "a", "is", 2)
        send_status(
            link, "a", t=0.0, power=400.0,
            model_a=0.0, model_b=-0.01, model_c=5.0, model_r2=MIN_FEEDBACK_R2 / 2,
        )
        manager.step(0.0)
        assert manager.jobs["a"].online_model is None


FIT = dict(model_a=0.0, model_b=-0.01, model_c=5.0, model_r2=0.9)


def model_accepts(journal):
    return [r for r in journal.replay().records if r.type == "model-accept"]


class TestRepeatedModelIsHeartbeat:
    """A status repeating the fit a record holds changes nothing but
    ``last_heard``: ``model-accept`` is one record/event per distinct fit."""

    def make(self, tmp_path, **kwargs):
        telemetry = Telemetry()
        journal = Journal(tmp_path / "journal.jsonl")
        manager = make_manager(
            use_feedback=True, journal=journal, telemetry=telemetry, **kwargs
        )
        return manager, journal, telemetry

    def test_repeats_keep_the_model_object_and_write_nothing(self, tmp_path):
        manager, journal, telemetry = self.make(tmp_path)
        link = connect_job(manager, "a", "is", 2)
        for t in range(40):
            send_status(link, "a", t=float(t), **FIT)
            manager.step(float(t))
            if t == 0:
                first = manager.jobs["a"].online_model
                first.t_min, first.t_max  # the budgeter's memos, now warm
        record = manager.jobs["a"]
        assert record.online_model is first
        assert {"_t_min", "_t_max"} <= set(first.__dict__)
        assert record.last_heard == 39.0  # every repeat is still a heartbeat
        assert record.last_status.timestamp == 39.0
        assert len(model_accepts(journal)) == 1
        events = [
            e for e in telemetry.ring.records() if e["name"] == "model-accept"
        ]
        assert len(events) == 1
        assert telemetry.registry.get_value("anor_models_accepted_total") == 1

    def test_refit_and_new_r2_are_new_fits(self, tmp_path):
        manager, journal, telemetry = self.make(tmp_path)
        link = connect_job(manager, "a", "is", 2)
        fits = [FIT, FIT, {**FIT, "model_r2": 0.7}, {**FIT, "model_c": 6.0}, FIT]
        for t, fit in enumerate(fits):
            send_status(link, "a", t=float(t), **fit)
            manager.step(float(t))
            record = manager.jobs["a"]
            assert (record.online_model.c, record.online_r2) == (
                fit["model_c"], fit["model_r2"]
            )
        assert [(r.data["c"], r.data["r2"]) for r in model_accepts(journal)] == [
            (5.0, 0.9), (5.0, 0.7), (6.0, 0.9), (5.0, 0.9)
        ]
        assert telemetry.registry.get_value("anor_models_accepted_total") == 4

    def test_bad_coefficients_are_validated_every_time(self, tmp_path):
        manager, journal, telemetry = self.make(tmp_path)
        link = connect_job(manager, "a", "is", 2)
        send_status(link, "a", t=0.0, **FIT)
        manager.step(0.0)
        good = manager.jobs["a"].online_model
        for t, bad in enumerate(
            (
                {**FIT, "model_a": math.nan},
                {**FIT, "model_r2": math.nan},
                {**FIT, "model_b": 0.02},
                {**FIT, "model_b": 0.02},
            ),
            start=1,
        ):
            send_status(link, "a", t=float(t), **bad)
            manager.step(float(t))
        # A repeated bad fit is re-rejected.
        assert telemetry.registry.get_value("anor_models_rejected_total") == 4
        assert manager.jobs["a"].online_model is good
        assert len(model_accepts(journal)) == 1

    def test_gated_r2_is_skipped_even_when_coefficients_repeat(self, tmp_path):
        manager, journal, _ = self.make(tmp_path)
        link = connect_job(manager, "a", "is", 2)
        send_status(link, "a", t=0.0, **FIT)
        send_status(link, "a", t=0.0, **{**FIT, "model_r2": MIN_FEEDBACK_R2 / 2})
        manager.step(0.0)
        assert manager.jobs["a"].online_r2 == 0.9
        assert len(model_accepts(journal)) == 1

    def test_reconnect_under_another_ceiling_revalidates(self, tmp_path):
        manager, journal, _ = self.make(tmp_path)
        link = connect_job(manager, "a", "bt", 2)
        send_status(link, "a", t=0.0, **FIT)
        manager.step(0.0)
        assert manager.jobs["a"].online_model.p_max == 272.0
        # Same job, fresh link, another claimed type: the carried-over fit was
        # validated on [140, 272] and must be checked again on [140, 235].
        link = connect_job(manager, "a", "is", 2, now=1.0)
        send_status(link, "a", t=1.0, **FIT)
        manager.step(1.0)
        record = manager.jobs["a"]
        assert record.believed_p_max == 235.0
        assert record.online_model.p_max == 235.0
        assert len(model_accepts(journal)) == 2

    def test_hello_borne_fit_is_journalled_after_its_admit(self, tmp_path):
        manager, journal, telemetry = self.make(tmp_path)
        link = TcpLink(latency=0.0)
        manager.register_link(link)
        link.send_up(
            HelloMessage("a", "is", 2, 0.0, degraded_seconds=40.0, **FIT), 0.0
        )
        for t in range(5):
            send_status(link, "a", t=float(t), **FIT)
            manager.step(float(t))
        assert manager.hello_merges == 1
        kinds = [
            (r.type, r.data.get("kind")) for r in journal.replay().records
            if r.type != "cap-decision"
        ]
        assert kinds == [("job-admit", "hello"), ("model-accept", None)]
        assert telemetry.registry.get_value("anor_models_accepted_total") == 1


class TestTriageKeepsRequests:
    """Triage hands the budgeter the request a record was last budgeted with
    until what it holds moves: the online fit (a new model object), the
    believed ceiling, the width or the platform floor.  The request is
    derived state: a fresh record, as any reconnect makes, starts without."""

    @staticmethod
    def drive(manager, link, fits, edits=None):
        """One round per fit; ``edits[t]`` runs before round ``t``.  Each
        round's budgeted request and the record's kept one."""
        seen = []
        for t, fit in enumerate(fits):
            send_status(link, "a", t=float(t), **fit)
            if edits and t in edits:
                edits[t](manager, manager.jobs["a"])
            manager.step(float(t))
            rnd = manager.last_round
            seen.append((rnd.requests[0], rnd.jobs["a"].request))
        return seen

    def test_a_request_is_kept_until_the_fit_moves(self):
        manager = make_manager(use_feedback=True)
        link = connect_job(manager, "a", "is", 2)
        refit = {**FIT, "model_c": 6.0}
        seen = self.drive(manager, link, [FIT, FIT, FIT, refit, refit])
        budgeted = [q for q, _ in seen]
        assert all(q is kept for q, kept in seen)
        assert budgeted[0] is budgeted[1] is budgeted[2]
        assert budgeted[3] is not budgeted[2] and budgeted[3] is budgeted[4]
        record = manager.jobs["a"]
        assert budgeted[2].model.c == 5.0 and budgeted[3].model is record.online_model

    def test_the_ceiling_the_width_and_the_floor_each_rebuild_it(self):
        manager = make_manager(total_nodes=8)
        link = connect_job(manager, "a", "bt", 2)
        edits = {
            2: lambda m, r: setattr(r, "believed_p_max", 230.0),
            4: lambda m, r: setattr(r, "nodes", 3),
        }
        seen = self.drive(manager, link, [{}] * 8, edits)
        budgeted = [q for q, _ in seen]
        for t in (1, 3, 5, 6, 7):
            assert budgeted[t] is budgeted[t - 1]
        for t in (2, 4):
            assert budgeted[t] is not budgeted[t - 1]
        assert budgeted[2].p_max == 230.0 and budgeted[4].nodes == 3
        # The floor is the platform's: no run can move it, so no edit does.
        assert {q.p_min for q in budgeted} == {P_NODE_MIN}
        assert budgeted[7].model is manager.jobs["a"].believed_model

    def test_a_reconnected_record_starts_without_one(self):
        manager = make_manager()
        link = connect_job(manager, "a", "bt", 2)
        (before, _), = self.drive(manager, link, [{}])
        link = connect_job(manager, "a", "bt", 2, now=1.0)
        send_status(link, "a", t=1.0)
        manager.step(1.0)
        after = manager.last_round.requests[0]
        assert after == before and after is not before

    def test_an_auditor_replaced_request_is_never_the_kept_one(self):
        from repro.core.audit import REHABILITATING, CapComplianceAuditor

        auditor = CapComplianceAuditor(job_meter=lambda job_id: None)
        manager = make_manager(use_feedback=True, auditor=auditor)
        link = connect_job(manager, "a", "is", 2)
        auditor.force_state("a", REHABILITATING)
        seen = self.drive(manager, link, [FIT] * 4)
        assert auditor.state("a") == REHABILITATING
        record = manager.jobs["a"]
        assert record.request.model is record.online_model
        for budgeted, kept in seen:
            assert kept is record.request
            assert budgeted.model is record.believed_model and budgeted is not kept


class TestTrackingAndCorrection:
    def test_tracking_samples_recorded(self):
        seen = []
        manager = make_manager(meter=lambda: 800.0, monitors=[seen.append])
        manager.step(0.0)
        manager.step(1.0)
        assert len(seen) == 2
        assert seen[0].target == 840.0
        assert seen[0].measured == 800.0

    def test_integral_correction_raises_budget_when_under(self):
        manager = make_manager(meter=lambda: 700.0, correction_gain=0.5)
        link = connect_job(manager, "a", "bt", 2)
        send_status(link, "a", t=0.0, power=400.0)
        caps1 = manager.step(0.0)
        send_status(link, "a", t=1.0, power=400.0)
        caps2 = manager.step(1.0)
        assert caps2["a"] >= caps1["a"]

    def test_correction_clamped(self):
        manager = make_manager(meter=lambda: 0.0, correction_gain=1.0)
        connect_job(manager, "a", "bt", 2)
        for i in range(20):
            manager.step(float(i))
        assert manager._correction == pytest.approx(CORRECTION_LIMIT_FRACTION * 840.0)

    def test_empty_rounds_leave_the_trim_alone(self):
        """A round that budgets no job integrates nothing, however far the
        meter reads from the target; the first occupied round does."""
        manager = make_manager(meter=lambda: 700.0, correction_gain=0.5)
        for i in range(5):
            manager.step(float(i))
            assert manager._correction == 0.0
        connect_job(manager, "a", "bt", 2, now=5.0)
        manager.step(5.0)
        assert manager._correction == 0.5 * (840.0 - 700.0)


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0, 840.0])
)


def _same_float(a: float, b: float) -> bool:
    """Equal bit for bit where it matters: value, the sign of a zero, NaN."""
    if a != a or b != b:
        return a != a and b != b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestTrimClamp:
    """The meter stage clamps the integral trim with ``min``/``max``, where
    it used ``float(np.clip(...))``; the two agree on every float it sees."""

    @settings(max_examples=400, deadline=None)
    @given(
        trim=st.one_of(FINITE, st.sampled_from(["-limit", "+limit"])),
        target=FINITE,
        measured=st.one_of(FINITE, st.just("target")),
        gain=st.one_of(st.floats(min_value=5e-324, max_value=1e300), st.just(1.0)),
    )
    @example(trim="+limit", target=840.0, measured="target", gain=0.15)
    @example(trim="-limit", target=840.0, measured="target", gain=0.15)
    @example(trim=-0.0, target=-0.0, measured=0.0, gain=1.0)  # the trim is -0.0
    @example(trim=5.0, target=-0.0, measured="target", gain=1.0)  # bounds ±0.0
    def test_equals_np_clip(self, trim, target, measured, gain):
        limit = CORRECTION_LIMIT_FRACTION * target
        trim = {"-limit": -limit, "+limit": limit}.get(trim, trim)
        measured = target if measured == "target" else measured
        manager = make_manager(correction_gain=gain)
        manager._correction = trim
        rnd = SimpleNamespace(time=0.0, measured=measured, target=target, occupied=True)
        manager._read_meter(rnd)
        want = float(np.clip(trim + gain * (target - measured), -limit, limit))
        assert _same_float(manager._correction, want)
        assert _same_float(rnd.correction, want)

    @settings(max_examples=200, deadline=None)
    @given(
        readings=st.lists(
            st.tuples(st.floats(0.0, 1e5), st.floats(allow_nan=True, allow_infinity=True)),
            max_size=20,
        )
    )
    def test_the_target_reaching_the_clamp_is_finite(self, readings):
        """No NaN reaches the clamp: the target is the hold-last-good
        filter's, finite and positive whatever the feed reads."""
        hold = HoldLastGoodTarget(floor=560.0)
        now = 0.0
        for dt, value in readings:
            now += dt
            target = hold.read(now, value)
            assert math.isfinite(target) and target > 0


class TestJobCapGaugeCache:
    """The per-job cap gauge is a cached child instrument (hot path), held by
    the round's telemetry owner."""

    def _enabled_manager(self):
        from repro.telemetry import Telemetry

        return make_manager(telemetry=Telemetry(enabled=True))

    def test_cap_dispatch_exports_and_caches_child_gauges(self):
        manager = self._enabled_manager()
        link_a = connect_job(manager, "a", "bt", 2)
        link_b = connect_job(manager, "b", "sp", 2)
        manager.step(0.0)
        send_status(link_a, "a", t=1.0)
        send_status(link_b, "b", t=1.0)
        manager.step(1.0)

        reg = manager.telemetry.registry
        for job_id in ("a", "b"):
            exported = reg.get_value("anor_job_cap_watts", job=job_id)
            assert exported == pytest.approx(manager.jobs[job_id].last_cap)
            # The cached handle IS the registry's instrument, so later
            # rounds update the same exported child without re-resolving.
            assert manager.round_telemetry._mx_job_cap[job_id] is reg.gauge(
                "anor_job_cap_watts", job=job_id
            )

    def test_repeated_rounds_reuse_the_cached_handle(self):
        manager = self._enabled_manager()
        link = connect_job(manager, "a", "bt", 2)
        manager.step(0.0)
        send_status(link, "a", t=1.0)
        manager.step(1.0)
        handle = manager.round_telemetry._mx_job_cap["a"]
        send_status(link, "a", t=2.0)
        manager.step(2.0)
        assert manager.round_telemetry._mx_job_cap["a"] is handle
        reg = manager.telemetry.registry
        assert reg.get_value("anor_job_cap_watts", job="a") == pytest.approx(
            manager.jobs["a"].last_cap
        )

    def test_goodbye_drops_the_cache_entry(self):
        manager = self._enabled_manager()
        link = connect_job(manager, "a", "bt", 2)
        manager.step(0.0)
        send_status(link, "a", t=1.0)
        manager.step(1.0)
        assert "a" in manager.round_telemetry._mx_job_cap
        link.send_up(GoodbyeMessage("a", 2.0), 2.0)
        manager.step(2.0)
        assert "a" not in manager.round_telemetry._mx_job_cap

    def test_disabled_manager_never_builds_instruments(self):
        # Allocation-free when disabled: no telemetry owner is built, so the
        # round's metric handles (the per-job gauge cache included) never
        # exist, and neither stage list holds one of its stages.
        manager = make_manager()
        link = connect_job(manager, "a", "bt", 2)
        manager.step(0.0)
        send_status(link, "a", t=1.0)
        manager.step(1.0)
        assert not manager.telemetry.enabled
        assert manager.round_telemetry is None
        assert all(stage.__self__ is manager
                   for stage in manager._stages + manager._budget_stages)
