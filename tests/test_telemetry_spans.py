"""Span-tree tests: the event bus, trace validation, and a real control run."""

from unittest import mock

import pytest

from repro import telemetry
from repro.core.framework import AnorConfig
from repro.experiments.fig9 import build_demand_response_system
from repro.telemetry import NULL_BUS, EventBus, RingBufferSink
from repro.telemetry.schema import (
    build_span_tree,
    summarize_trace,
    validate_record,
    validate_trace,
)


def collect(bus: EventBus) -> RingBufferSink:
    sink = RingBufferSink(1 << 16)
    bus.add_sink(sink)
    return sink


class TestEventBus:
    def test_span_records_carry_the_envelope(self):
        bus = EventBus()
        sink = collect(bus)
        sid = bus.begin_span("control-round", 1.0, target=100.0)
        bus.end_span(sid, 2.0, jobs=3)
        start, end = sink.records()
        assert start == {
            "kind": "span_start", "name": "control-round", "t": 1.0,
            "id": sid, "parent": None, "attrs": {"target": 100.0},
        }
        assert end["kind"] == "span_end"
        assert end["id"] == sid
        assert end["name"] is None
        assert end["attrs"] == {"jobs": 3}

    def test_end_of_unopened_span_raises(self):
        with pytest.raises(ValueError):
            EventBus().end_span(42, 1.0)

    def test_end_of_zero_handle_is_noop(self):
        bus = EventBus()
        bus.end_span(0, 1.0)  # the disabled-begin handle
        assert bus.records_emitted == 0

    def test_disabled_bus_emits_nothing_and_returns_zero(self):
        sink = collect(NULL_BUS)
        assert NULL_BUS.begin_span("s", 0.0) == 0
        NULL_BUS.event("e", 0.0)
        NULL_BUS.incident("cat", 0.0)
        assert sink.records() == []
        assert NULL_BUS.incident_counts == {}

    def test_incident_counts_by_category(self):
        bus = EventBus()
        sink = collect(bus)
        bus.incident("node-crash", 1.0, node=3)
        bus.incident("node-crash", 2.0, node=4)
        bus.incident("meter-fault", 3.0)
        assert bus.incident_counts == {"node-crash": 2, "meter-fault": 1}
        rec = sink.records()[0]
        assert rec["name"] == "incident"
        assert rec["attrs"] == {"category": "node-crash", "node": 3}

    def test_open_span_count(self):
        bus = EventBus()
        a = bus.begin_span("a", 0.0)
        bus.begin_span("b", 0.0, parent=a)
        assert bus.open_spans == 2
        bus.end_span(a, 1.0)
        assert bus.open_spans == 1


class TestValidation:
    def make(self, **over):
        rec = {"kind": "event", "name": "e", "t": 0.0, "id": 1,
               "parent": None, "attrs": {}}
        rec.update(over)
        return rec

    def test_valid_record_passes(self):
        assert validate_record(self.make()) == []

    @pytest.mark.parametrize(
        "over",
        [
            {"kind": "blob"},
            {"name": ""},
            {"name": None},
            {"t": "soon"},
            {"t": True},
            {"id": 0},
            {"id": "x"},
            {"parent": "root"},
            {"attrs": []},
        ],
    )
    def test_bad_fields_flagged(self, over):
        assert validate_record(self.make(**over)) != []

    def test_missing_field_flagged(self):
        rec = self.make()
        del rec["attrs"]
        assert "missing fields" in validate_record(rec)[0]

    def test_span_end_must_have_null_name(self):
        rec = self.make(kind="span_end", name="oops")
        assert validate_record(rec) != []

    def test_trace_catches_referential_errors(self):
        bad = [
            self.make(id=1, kind="span_start", name="a", t=0.0),
            self.make(id=1, kind="event", name="dup", t=1.0),        # dup id
            self.make(id=2, kind="event", name="e", t=0.5),          # time back
            self.make(id=3, kind="event", name="e", t=2.0, parent=9),  # bad parent
            self.make(id=4, kind="span_end", name=None, t=3.0),      # unopened
        ]
        errors = validate_trace(bad)
        assert any("duplicate id" in e for e in errors)
        assert any("time went backwards" in e for e in errors)
        assert any("not an open span" in e for e in errors)
        assert any("unopened span" in e for e in errors)
        assert any("never closed" in e for e in errors)  # span 1 stays open

    def test_clean_synthetic_trace_validates(self):
        bus = EventBus()
        sink = collect(bus)
        outer = bus.begin_span("round", 0.0)
        inner = bus.begin_span("budget", 0.5, parent=outer)
        bus.event("model-accept", 0.6, parent=outer)
        bus.end_span(inner, 0.9)
        bus.end_span(outer, 1.0)
        assert validate_trace(sink.records()) == []


class TestSpanTree:
    def test_nesting_and_events_attach(self):
        bus = EventBus()
        sink = collect(bus)
        outer = bus.begin_span("round", 0.0, target=10.0)
        inner = bus.begin_span("budget", 0.1, parent=outer)
        bus.event("cap-dispatch", 0.2, parent=outer, caps={"j": 1.0})
        bus.end_span(inner, 0.3, allocated=9.0)
        bus.end_span(outer, 0.4)
        roots = build_span_tree(sink.records())
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "round" and root.complete
        assert root.attrs == {"target": 10.0}
        budget = root.child("budget")
        assert budget is not None and budget.end_attrs == {"allocated": 9.0}
        assert [e["name"] for e in root.events] == ["cap-dispatch"]
        assert root.child("nope") is None

    def test_incomplete_span_reported(self):
        bus = EventBus()
        sink = collect(bus)
        bus.begin_span("round", 0.0)
        (root,) = build_span_tree(sink.records())
        assert not root.complete


class TestRealRun:
    """A short Fig. 9 run must produce a well-formed, complete span stream."""

    @pytest.fixture(scope="class")
    def records(self):
        cfg = AnorConfig(seed=0, telemetry_enabled=True)
        with mock.patch.object(telemetry, "RING_SIZE", 1 << 16):
            system = build_demand_response_system(duration=120.0, seed=0, config=cfg)
        system.run(120.0)
        return system.telemetry.ring.records()

    def test_trace_validates(self, records):
        assert validate_trace(records) == []

    def test_one_complete_control_round_per_period(self, records):
        roots = build_span_tree(records)
        rounds = [r for r in roots if r.name == "control-round"]
        assert len(rounds) >= 120  # manager_period is 1 s
        assert all(r.complete for r in rounds)

    def test_budget_rounds_carry_policy_and_slowdown(self, records):
        roots = build_span_tree(records)
        budgets = [
            c
            for r in roots
            if r.name == "control-round"
            for c in r.children
            if c.name == "budget-round"
        ]
        assert budgets, "no budget rounds in a 120 s run"
        assert all(b.attrs["policy"] == "even-slowdown" for b in budgets)
        # The even-slowdown budgeter reports the slowdown it settled on.
        assert any("slowdown" in b.end_attrs for b in budgets)

    def test_cap_dispatch_events_inside_rounds(self, records):
        roots = build_span_tree(records)
        dispatches = [
            e
            for r in roots
            for e in r.events
            if e["name"] == "cap-dispatch"
        ]
        assert dispatches
        assert all(e["attrs"]["caps"] for e in dispatches)

    def test_summary_counts_spans(self, records):
        summary = summarize_trace(records)
        assert summary["spans"]["control-round"] >= 120
        assert summary["records"] == len(records)
        assert summary["t_max"] >= 119.0
