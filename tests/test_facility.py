"""Tests for the facility tier (multi-cluster coordination, paper §8)."""

import pytest

from repro.budget.base import JobBudgetRequest
from repro.budget.even_power import EvenPowerBudgeter
from repro.core.targets import ConstantTarget
from repro.facility.breaker import CONFIRM_ROUNDS, RESET_ROUNDS, TRIP_ROUNDS, PowerBreaker
from repro.facility.coordinator import (
    ClusterMember,
    FacilityCoordinator,
    MutableTarget,
    aggregate_cluster_model,
)
from repro.facility.shed import CLEAR_ROUNDS, ESCALATE_ROUNDS, ShedLadder
from repro.invariants import PLAN_SLACK
from repro.modeling.quadratic import QuadraticPowerModel
from repro.telemetry import Telemetry
from repro.workloads.nas import NAS_TYPES


def requests_for(*type_names):
    return [
        JobBudgetRequest(
            job_id=f"{name}-{i}",
            nodes=NAS_TYPES[name].nodes,
            model=NAS_TYPES[name].truth,
            p_min=140.0,
            p_max=NAS_TYPES[name].p_demand,
        )
        for i, name in enumerate(type_names)
    ]


class TestMutableTarget:
    def test_set_and_read(self):
        t = MutableTarget(1000.0)
        assert t.target(0.0) == 1000.0
        t.set(1500.0)
        assert t.target(99.0) == 1500.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            MutableTarget(0.0)
        with pytest.raises(ValueError, match="positive"):
            MutableTarget(1.0).set(-5.0)


class TestAggregateModel:
    def test_monotone_in_budget(self):
        model = aggregate_cluster_model(requests_for("bt", "sp"))
        assert model.time_at(model.p_min) > model.time_at(model.p_max)

    def test_sensitive_cluster_has_higher_sensitivity(self):
        sensitive = aggregate_cluster_model(requests_for("ep", "bt"))
        flat = aggregate_cluster_model(requests_for("is", "sp"))
        assert sensitive.sensitivity > flat.sensitivity

    def test_range_covers_cluster_band(self):
        reqs = requests_for("bt", "sp")
        model = aggregate_cluster_model(reqs)
        assert model.p_min == pytest.approx(sum(r.p_min * r.nodes for r in reqs))
        assert model.p_max == pytest.approx(sum(r.p_max * r.nodes for r in reqs))

    def test_no_jobs_rejected(self):
        with pytest.raises(ValueError, match="no jobs"):
            aggregate_cluster_model([])

    def test_sample_count_validated(self):
        with pytest.raises(ValueError, match="≥ 3"):
            aggregate_cluster_model(requests_for("bt"), samples=2)


def make_member(name, *type_names, initial=1000.0):
    reqs = requests_for(*type_names)
    model = aggregate_cluster_model(reqs)
    return ClusterMember(
        name=name,
        target=MutableTarget(initial),
        p_min=model.p_min,
        p_max=model.p_max,
        model=model,
    )


class TestCoordinator:
    def test_budget_split_respects_total(self):
        old = make_member("old", "bt", "sp")
        new = make_member("new", "ep", "lu")
        # A constrained feed: 80 % of what both clusters could draw at once.
        total = 0.8 * (old.p_max + new.p_max)
        fac = FacilityCoordinator(facility_target=ConstantTarget(total))
        fac.add_member(old)
        fac.add_member(new)
        shares = fac.step(0.0)
        assert sum(shares.values()) == pytest.approx(total, rel=0.02)

    def test_shares_pushed_into_member_targets(self):
        fac = FacilityCoordinator(facility_target=ConstantTarget(2500.0))
        a = make_member("a", "bt", "sp")
        b = make_member("b", "ep", "lu")
        fac.add_member(a)
        fac.add_member(b)
        shares = fac.step(0.0)
        assert a.target.target(0.0) == pytest.approx(shares["a"])
        assert b.target.target(0.0) == pytest.approx(shares["b"])

    def test_sensitive_cluster_favoured_under_even_slowdown(self):
        """§8's motivating case: the cluster whose workload loses more
        performance per watt removed should get more of the shared feed."""
        flat = make_member("flat", "is", "sp")
        hot = make_member("hot", "ep", "bt")
        total = 0.65 * (flat.p_max + hot.p_max)
        fac = FacilityCoordinator(facility_target=ConstantTarget(total))
        fac.add_member(flat)
        fac.add_member(hot)
        shares = fac.step(0.0)
        flat_frac = (shares["flat"] - flat.p_min) / (flat.p_max - flat.p_min)
        hot_frac = (shares["hot"] - hot.p_min) / (hot.p_max - hot.p_min)
        assert hot_frac > flat_frac

    def test_even_power_facility_split(self):
        a = make_member("a", "is", "sp")
        b = make_member("b", "ep", "bt")
        total = 0.65 * (a.p_max + b.p_max)
        fac = FacilityCoordinator(
            facility_target=ConstantTarget(total), budgeter=EvenPowerBudgeter()
        )
        fac.add_member(a)
        fac.add_member(b)
        shares = fac.step(0.0)
        frac_a = (shares["a"] - a.p_min) / (a.p_max - a.p_min)
        frac_b = (shares["b"] - b.p_min) / (b.p_max - b.p_min)
        assert frac_a == pytest.approx(frac_b, abs=1e-6)

    def test_update_member_model(self):
        fac = FacilityCoordinator(facility_target=ConstantTarget(2000.0))
        member = make_member("a", "bt", "sp")
        fac.add_member(member)
        flat = QuadraticPowerModel.from_anchors(
            1.0, 1.01, member.p_min, member.p_max
        )
        fac.update_member_model("a", flat)
        assert fac.members["a"].model is flat

    def test_duplicate_member_rejected(self):
        fac = FacilityCoordinator(facility_target=ConstantTarget(2000.0))
        fac.add_member(make_member("a", "bt"))
        with pytest.raises(ValueError, match="duplicate"):
            fac.add_member(make_member("a", "sp"))

    def test_no_members_noop(self):
        fac = FacilityCoordinator(facility_target=ConstantTarget(2000.0))
        assert fac.step(0.0) == {}

    def test_history_recorded(self):
        fac = FacilityCoordinator(facility_target=ConstantTarget(2000.0))
        fac.add_member(make_member("a", "bt", "sp"))
        fac.step(0.0)
        fac.step(10.0)
        assert len(fac.history) == 2
        assert fac.total_assigned > 0


class _Meter:
    """A mutable facility power meter for driving the breaker in tests."""

    def __init__(self, watts):
        self.watts = watts

    def __call__(self):
        return self.watts


def breaker_facility(*, feed, meter_watts, telemetry=None, ladder=None):
    meter = _Meter(meter_watts)
    kwargs = dict(
        facility_target=ConstantTarget(feed),
        meter=meter,
        breaker=PowerBreaker(margin=0.1),
        ladder=ladder,
    )
    if telemetry is not None:
        kwargs["telemetry"] = telemetry
    fac = FacilityCoordinator(**kwargs)
    fac.add_member(make_member("a", "bt", "sp"))
    fac.add_member(make_member("b", "ep", "lu"))
    return fac, meter


class Rounds:
    """Coordinator rounds 10 s apart, from t = 0."""

    def __init__(self, fac):
        self.fac, self.now = fac, -10.0

    def __call__(self, n):
        """Run ``n`` more rounds; returns the last round's caps."""
        for _ in range(n):
            self.now += 10.0
            caps = self.fac.step(self.now)
        return caps


class TestCoordinatorBreaker:
    def test_trip_forces_every_member_to_floor(self):
        """Open breaker = emergency uniform throttle: each cluster pinned
        at its enforceable p_min, regardless of the budgeter's split."""
        fac, meter = breaker_facility(feed=4000.0, meter_watts=6000.0)
        run = Rounds(fac)
        caps = run(TRIP_ROUNDS)  # the last strike opens it
        assert fac.breaker.tripped
        for name, member in fac.members.items():
            assert caps[name] == pytest.approx(member.p_min)
            assert member.target.target(run.now) == pytest.approx(member.p_min)

    def test_one_glitch_round_does_not_trip(self):
        fac, meter = breaker_facility(feed=4000.0, meter_watts=6000.0)
        run = Rounds(fac)
        run(TRIP_ROUNDS - 1)
        meter.watts = 4000.0  # meter glitch over; clean round resets strikes
        run(1)
        meter.watts = 6000.0
        run(TRIP_ROUNDS - 1)
        assert not fac.breaker.tripped

    def test_half_open_recovery_and_reopen(self):
        fac, meter = breaker_facility(feed=4000.0, meter_watts=6000.0)
        run = Rounds(fac)
        run(TRIP_ROUNDS)
        assert fac.breaker.state == "open"
        meter.watts = 3000.0
        run(RESET_ROUNDS)
        assert fac.breaker.state == "half-open"
        meter.watts = 6000.0  # one strike on probation re-opens immediately
        run(1)
        assert fac.breaker.state == "open"
        meter.watts = 3000.0
        run(RESET_ROUNDS + CONFIRM_ROUNDS)
        assert fac.breaker.state == "closed"
        caps = run(1)
        assert sum(caps.values()) > sum(m.p_min for m in fac.members.values())

    def test_breaker_transitions_emit_events_and_incidents(self):
        tel = Telemetry()
        fac, meter = breaker_facility(
            feed=4000.0, meter_watts=6000.0, telemetry=tel
        )
        run = Rounds(fac)
        run(TRIP_ROUNDS)
        assert any("breaker closed -> open" in line for line in fac.events)
        assert tel.incident_counts.get("facility-breaker-open") == 1
        assert tel.registry.get_value("anor_facility_breaker_state") == 2

    def test_tripped_floor_above_feed_names_shortfall(self):
        """When Σ p_min exceeds the physical feed there is no enforceable
        fix; the coordinator must say so rather than over-assign silently."""
        tel = Telemetry()
        fac, meter = breaker_facility(
            feed=500.0, meter_watts=5000.0, telemetry=tel
        )
        run = Rounds(fac)
        floor_total = sum(m.p_min for m in fac.members.values())
        assert floor_total > 500.0  # precondition for the scenario
        run(TRIP_ROUNDS)  # open -> emergency floor caps > feed
        assert tel.incident_counts.get("facility-shortfall", 0) >= 1
        incident = next(
            i for i in tel.incidents()
            if i["attrs"]["category"] == "facility-shortfall"
        )
        assert incident["attrs"]["shortfall_watts"] == pytest.approx(
            floor_total - 500.0
        )
        assert any("shortfall" in line for line in fac.events)

    def test_assigned_gauge_tracks_round(self):
        tel = Telemetry()
        fac = FacilityCoordinator(
            facility_target=ConstantTarget(2500.0), telemetry=tel
        )
        fac.add_member(make_member("a", "bt", "sp"))
        caps = fac.step(0.0)
        assert tel.registry.get_value(
            "anor_facility_assigned_watts"
        ) == pytest.approx(sum(caps.values()))


class TestCoordinatorLadder:
    def test_sagging_feed_degrades_and_ramps_back(self):
        """With a ladder installed, a feed sag walks severity up against
        the high-water nominal; restoring the feed ramps the pool back at
        the configured watts-per-round instead of snapping."""
        tel = Telemetry()
        # Members span p_min 840 W / p_max 1570 W in total; the feed must
        # sit inside that band for the sag to actually bind the split.
        feed = MutableTarget(1500.0)
        fac = FacilityCoordinator(
            facility_target=feed,
            ladder=ShedLadder(),
            telemetry=tel,
        )
        fac.add_member(make_member("a", "bt", "sp"))
        fac.add_member(make_member("b", "ep", "lu"))
        run = Rounds(fac)
        baseline = sum(run(1).values())  # high-water nominal split
        assert fac.ladder.severity == "normal"
        feed.set(900.0)  # 40 % deficit -> brownout-2 once sustained
        caps = run(ESCALATE_ROUNDS)
        assert fac.ladder.severity == "brownout-2"
        assert tel.registry.get_value("anor_facility_shed_severity") == 2
        assert tel.incident_counts.get("facility-shed-brownout-2") == 1
        assert sum(caps.values()) == pytest.approx(900.0, rel=0.02)
        feed.set(1500.0)
        prev = sum(run(1).values())
        ramped = sum(run(1).values())
        assert ramped - prev == pytest.approx(100.0, rel=0.05)
        run(2 * CLEAR_ROUNDS + 5)  # one level per clear window
        assert fac.ladder.severity == "normal"
        # Fully recovered: the split matches the pre-incident round.
        assert sum(fac.step(999.0).values()) == pytest.approx(baseline)

    def test_tripped_breaker_feeds_floor_supply_to_ladder(self):
        """Breaker open + ladder installed: supply collapses to Σ p_min, so
        the ladder (not the binary floor slam) grades the emergency."""
        ladder = ShedLadder()
        fac, meter = breaker_facility(
            feed=4000.0, meter_watts=6000.0, ladder=ladder
        )
        run = Rounds(fac)
        # The breaker opens on its last strike; the ladder escalates once
        # the floor supply has been indicated for ESCALATE_ROUNDS rounds.
        caps = run(TRIP_ROUNDS + ESCALATE_ROUNDS - 1)
        assert fac.breaker.tripped
        assert fac.ladder.severity != "normal"
        floor_total = sum(m.p_min for m in fac.members.values())
        assert sum(caps.values()) == pytest.approx(floor_total, rel=0.02)


class TestCoordinatorBoundedLogs:
    def test_history_and_events_bounded(self, monkeypatch):
        import repro.facility.coordinator as coord_mod

        monkeypatch.setattr(coord_mod, "HISTORY_LIMIT", 8)
        monkeypatch.setattr(coord_mod, "EVENT_LOG_LIMIT", 4)
        feed = MutableTarget(4000.0)
        fac = FacilityCoordinator(facility_target=feed, ladder=ShedLadder())
        fac.add_member(make_member("a", "bt", "sp"))
        run = Rounds(fac)
        run(1)  # the nominal feed's high-water mark
        rounds = 1
        for _ in range(2):
            # Sag until the ladder escalates, restore until it is back to
            # normal: every incident logs severity events.
            for watts, done in ((2000.0, lambda: fac.ladder.severity != "normal"),
                                (4000.0, lambda: fac.ladder.severity == "normal")):
                feed.set(watts)
                while True:
                    run(1)
                    rounds += 1
                    if done():
                        break
        assert len(fac.history) == 8
        assert fac.history_dropped == rounds - 8
        assert len(fac.events) == 4
        assert fac.events_dropped > 0


class _FailingFeed(ConstantTarget):
    """A constant feed that raises from ``t = fail_from`` on (a NaN reading
    with ``nan=True``)."""

    def __init__(self, watts, fail_from, *, nan=False):
        super().__init__(watts)
        self.fail_from, self.nan = fail_from, nan

    def target(self, now):
        if now >= self.fail_from:
            if self.nan:
                return float("nan")
            raise ConnectionError("feed down")
        return super().target(now)


class TestCoordinatorFeedGuard:
    """The facility's inputs are read through a guard, as the cluster head
    reads its own: an unreadable feed or meter does not crash the round."""

    @pytest.mark.parametrize("nan", [False, True])
    def test_unreadable_feed_holds_the_last_split(self, nan):
        tel = Telemetry()
        fac = FacilityCoordinator(
            facility_target=_FailingFeed(2500.0, 10.0, nan=nan), telemetry=tel
        )
        fac.add_member(make_member("a", "bt", "sp"))
        fac.add_member(make_member("b", "ep", "lu"))
        split = fac.step(0.0)
        assert fac.step(10.0) == split
        assert fac.step(20.0) == split
        assert {n: m.target.target(20.0) for n, m in fac.members.items()} == split
        lost = [line for line in fac.events if "feed unreadable" in line]
        assert len(lost) == 1 and lost[0].startswith("t=10.0")
        assert tel.incident_counts.get("facility-feed-lost") == 1
        assert len(fac.history) == 1  # a held round splits nothing

    def test_meter_that_raises_skips_the_breaker_round(self):
        # Metered far over the feed: read, this meter would trip the breaker.
        fac, meter = breaker_facility(feed=500.0, meter_watts=5000.0)

        def dark():
            raise OSError("meter dark")

        fac.meter = dark
        unmetered, _ = breaker_facility(feed=500.0, meter_watts=5000.0)
        unmetered.breaker = None
        caps = Rounds(fac)(TRIP_ROUNDS + 1)
        assert fac.breaker.state == "closed" and not fac.breaker.tripped
        assert caps == Rounds(unmetered)(TRIP_ROUNDS + 1)
        fac.meter = meter  # the meter back: the breaker observes again
        Rounds(fac)(TRIP_ROUNDS + 1)
        assert fac.breaker.tripped

    def test_even_split_of_the_feed_is_no_shortfall(self):
        # Two identical 16-node clusters share 8 kW: the even-slowdown solve
        # assigns each its half give or take its rounding, which is no
        # shortfall.
        fac = FacilityCoordinator(facility_target=ConstantTarget(8000.0))
        model = QuadraticPowerModel.from_anchors(1.0, 1.3, 3000.0, 5000.0)
        for name in ("a", "b"):
            fac.add_member(ClusterMember(
                name=name, target=MutableTarget(4000.0), p_min=3000.0, p_max=5000.0,
                model=model,
            ))
        for now in (0.0, 10.0):
            caps = fac.step(now)
        assert 8000.0 < sum(caps.values()) < 8000.0 + PLAN_SLACK
        assert not [line for line in fac.events if "shortfall" in line]
