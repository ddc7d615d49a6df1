"""Tests for the tier-to-tier message vocabulary and the control plane's
other per-job records."""

import pytest
from hypothesis import given, strategies as st

from repro.budget.base import JobBudgetRequest
from repro.core.messages import BudgetMessage, GoodbyeMessage, HelloMessage, StatusMessage
from repro.core.reliable import Ack, Envelope
from repro.geopm.agent import AgentPolicy, AgentSample
from repro.modeling.quadratic import QuadraticPowerModel


class TestBudgetMessage:
    def test_valid(self):
        msg = BudgetMessage("j", 200.0, 1.0)
        assert msg.power_cap_node == 200.0

    def test_non_positive_cap_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            BudgetMessage("j", 0.0, 1.0)

    def test_frozen(self):
        msg = BudgetMessage("j", 200.0, 1.0)
        with pytest.raises(AttributeError):
            msg.power_cap_node = 100.0


class TestStatusMessage:
    def test_has_model_false_by_default(self):
        msg = StatusMessage("j", 1.0, 5, 400.0, 200.0)
        assert not msg.has_model
        assert msg.model_b is None

    def test_has_model_with_coefficients(self):
        msg = StatusMessage(
            "j", 1.0, 5, 400.0, 200.0,
            model_a=0.0, model_b=-0.01, model_c=5.0, model_r2=0.9,
        )
        assert msg.has_model

    @given(
        st.floats(0, 1e6), st.integers(0, 10**6), st.floats(0, 1e5), st.floats(1, 400)
    )
    def test_property_roundtrip_fields(self, t, epochs, power, cap):
        msg = StatusMessage("j", t, epochs, power, cap)
        assert msg.timestamp == t
        assert msg.epoch_count == epochs
        assert msg.measured_power == power
        assert msg.applied_cap == cap


class TestHelloGoodbye:
    def test_hello_fields(self):
        msg = HelloMessage("j", "bt", 4, 0.0)
        assert msg.claimed_type == "bt"
        assert msg.nodes == 4

    def test_goodbye_fields(self):
        msg = GoodbyeMessage("j", 9.0)
        assert msg.timestamp == 9.0


#: One of each hot control-plane record (DESIGN.md §7, *Control-plane
#: records*), named tuples since they were frozen dataclasses.
RECORDS = [
    HelloMessage("j", "bt", 4, 0.0),
    StatusMessage("j", 1.0, 5, 400.0, 200.0),
    GoodbyeMessage("j", 9.0),
    BudgetMessage("j", 200.0, 1.0, lease_ttl=30.0),
    AgentPolicy(200.0, issued_at=1.0),
    AgentSample(1.0, 400.0, 10.0, 5, 2, 200.0),
    JobBudgetRequest(
        "j", 2, QuadraticPowerModel.from_anchors(1.0, 1.3, 140.0, 280.0), 140.0, 280.0
    ),
    Envelope(0, "cap"),
    Ack((0, 1)),
]


def _name(rec) -> str:
    return type(rec).__name__


class TestRecords:
    @pytest.mark.parametrize("rec", RECORDS, ids=_name)
    def test_immutable(self, rec):
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], rec[0])
        with pytest.raises(AttributeError):
            rec.extra = 1  # no instance dict either

    @pytest.mark.parametrize("rec", RECORDS, ids=_name)
    def test_equal_only_to_a_record_of_its_own_type(self, rec):
        twin = type(rec)(*rec)
        assert rec == twin and not rec != twin
        assert hash(rec) == hash(twin)
        assert rec != tuple(rec) and not rec == tuple(rec)
        assert tuple(rec) != rec
        for other in RECORDS:
            if type(other) is not type(rec):
                assert rec != other and not rec == other

    def test_same_values_different_types_differ(self):
        assert GoodbyeMessage("j", 9.0) != Envelope("j", 9.0)
        assert not GoodbyeMessage("j", 9.0) == Envelope("j", 9.0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: BudgetMessage("j", 0.0, 1.0), "j: power cap must be positive, got 0.0"),
            (
                lambda: BudgetMessage("j", 200.0, 1.0, lease_ttl=0.0),
                "j: lease_ttl must be positive, got 0.0",
            ),
            (lambda: AgentPolicy(-1.0), "power cap must be positive, got -1.0"),
            (
                lambda: AgentPolicy(200.0, lease_ttl=-2.0),
                "lease_ttl must be positive, got -2.0",
            ),
            (
                lambda: AgentPolicy(200.0, ramp_seconds=-1.0),
                "ramp_seconds must be ≥ 0, got -1.0",
            ),
            (lambda: JobBudgetRequest("j", 0, None, 140.0, 280.0), "j: nodes must be ≥ 1"),
            (
                lambda: JobBudgetRequest("j", 2, None, 280.0, 280.0),
                "j: need p_min < p_max, got [280.0, 280.0]",
            ),
        ],
    )
    def test_validation_messages(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_keywords_defaults_and_repr(self):
        msg = BudgetMessage(job_id="j", power_cap_node=200.0, timestamp=1.0)
        assert msg.lease_ttl is None and msg == BudgetMessage("j", 200.0, 1.0, None)
        status = StatusMessage("j", 1.0, 5, 400.0, 200.0, model_a=0.0)
        assert (status.model_b, status.model_c, status.model_r2) == (None, None, None)
        assert repr(msg) == (
            "BudgetMessage(job_id='j', power_cap_node=200.0, timestamp=1.0, lease_ttl=None)"
        )
