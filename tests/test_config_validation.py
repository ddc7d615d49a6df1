"""Range validation: bad knobs fail loudly, naming the knob.

Most knobs are :class:`AnorConfig` fields.  The tuning parameters of the
auditor are constructor parameters of that class only — ``AnorConfig``
switches the subsystem on and forwards none of its tuning, since no run ever
set it — so their rows check the owning constructor, which is where a bad
value would be caught.  (The breaker's and the reliable link's are checked
where those classes are tested: ``test_partition_safety.py``.)
"""

import dataclasses

import pytest

from repro.core.audit import CapComplianceAuditor
from repro.core.framework import AnorConfig

FIELDS = {f.name for f in dataclasses.fields(AnorConfig)}

#: Row-id prefix -> constructor of the subsystem that owns the knob; the rest
#: of the id is the constructor parameter.
SUBSYSTEMS = {
    "audit": lambda **kw: CapComplianceAuditor(
        job_meter=None, p_node_min=140.0, p_node_max=280.0, **kw
    ),
}


class TestConfigValidation:
    def test_defaults_are_valid(self):
        AnorConfig()  # must not raise

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_nodes", 0),
            ("tick", 0.0),
            ("agent_period", -1.0),
            ("endpoint_period", 0.0),
            ("manager_period", -0.5),
            ("checkpoint_period", 0.0),
            ("recovery_timeout", 0.0),
            ("stale_status_timeout", -3.0),
            ("dead_job_timeout", 0.0),
            ("telemetry_ring_size", 0),
            ("reliable_base_backoff", 0.0),
            ("reliable_max_backoff", -1.0),
            ("partition_attempts", 0),
            ("reconnect_backoff", 0.0),
            ("audit_mismatch_tolerance", -0.2),
            ("audit_model_error", 0.0),
            ("audit_suspect_rounds", 0),
            ("audit_quarantine_rounds", -1),
            ("idle_power", -1.0),
            ("lease_ramp_seconds", -5.0),
            ("max_requeues", -1),
            ("audit_tolerance", -0.1),
            ("audit_guardband", -2.0),
            ("lease_ttl", 0.0),
            ("safe_floor", -140.0),
            ("breaker_margin", 0.0),
            ("endpoint_restart_delay", -10.0),
            ("link_drop_probability", 1.0),
            ("link_drop_probability", -0.1),
            ("audit_probe_margin", 0.0),
            ("audit_probe_margin", 1.5),
        ],
    )
    def test_bad_value_names_the_field(self, field, value):
        if field in FIELDS:
            with pytest.raises(ValueError, match=field):
                AnorConfig(**{field: value})
        else:
            subsystem, _, knob = field.partition("_")
            with pytest.raises(ValueError, match=knob):
                SUBSYSTEMS[subsystem](**{knob: value})

    def test_config_forwards_no_subsystem_tuning(self):
        """The knob count only falls: 58 fields, and the subsystem tuning
        parameters are not among them."""
        assert len(FIELDS) == 58
        with pytest.raises(TypeError, match="audit_window"):
            AnorConfig(audit_window=10.0)

    def test_optional_none_disables_without_error(self):
        AnorConfig(
            lease_ttl=None, safe_floor=None, breaker_margin=None,
            endpoint_restart_delay=None,
        )

    def test_backoff_ordering_inversion_rejected(self):
        with pytest.raises(ValueError, match="reliable_max_backoff"):
            AnorConfig(reliable_base_backoff=10.0, reliable_max_backoff=1.0)

    def test_timeout_ordering_inversion_rejected(self):
        with pytest.raises(ValueError, match="dead_job_timeout"):
            AnorConfig(stale_status_timeout=60.0, dead_job_timeout=30.0)
