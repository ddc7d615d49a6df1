"""Range validation: bad knobs fail loudly, naming the knob.

Most knobs are :class:`AnorConfig` fields.  The tuning parameters of the
reliable link, the manager's heartbeat timeouts and safe floor and the
plant's idle power are constructor parameters of those classes only —
``AnorConfig`` switches a subsystem on and forwards none of its tuning, since
no run ever set it — so their rows check the owning constructor, which is
where a bad value would be caught.  (The breaker's and the auditor's are
checked where those classes are tested: ``test_partition_safety.py``,
``test_audit.py::TestKnobValidation``.)
"""

import ast
import dataclasses
from functools import partial
from pathlib import Path

import pytest

from repro.budget.even_slowdown import EvenSlowdownBudgeter
from repro.core.cluster_manager import ClusterPowerManager
from repro.core.framework import AnorConfig, precharacterized_models
from repro.core.reliable import ReliableLink
from repro.core.targets import ConstantTarget
from repro.core.transport import TcpLink
from repro.hwsim.cluster import EmulatedCluster
from repro.modeling.classifier import JobClassifier

FIELDS = {f.name for f in dataclasses.fields(AnorConfig)}


def _config_keys_passed(tree: ast.Module):
    """Field names ``tree`` passes to an ``AnorConfig``: keywords of
    ``AnorConfig(...)`` calls, and the keys of override dicts — ``dict(...)`` /
    ``.update(...)`` calls and dict literals whose keys are all fields."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = [k.value for k in node.keys if isinstance(k, ast.Constant)]
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", ""))
            keys = [k.arg for k in node.keywords if k.arg]
            if name == "AnorConfig":
                yield from keys
            if name not in ("dict", "update"):
                continue
        else:
            continue
        if FIELDS.issuperset(keys):
            yield from keys


def _reliable_link(**kw):
    return ReliableLink(TcpLink(), "cluster", **kw)


def _manager(**kw):
    return ClusterPowerManager(
        budgeter=EvenSlowdownBudgeter(),
        target_source=ConstantTarget(840.0),
        classifier=JobClassifier(precharacterized_models()),
        total_nodes=4,
        **kw,
    )


#: Row-id prefix -> constructor of the subsystem that owns the knob; the rest
#: of the id is the constructor parameter.
SUBSYSTEMS = {
    "reliable": _reliable_link,
    # Parameters with no subsystem prefix to strip: keyed by their whole name.
    "partition_attempts": _reliable_link,
    "stale_status_timeout": _manager,
    "dead_job_timeout": _manager,
    "safe_floor": _manager,
    "idle_power": partial(EmulatedCluster, 4),
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
            ("idle_power", -1.0),
            ("lease_ramp_seconds", -5.0),
            ("lease_ttl", 0.0),
            ("safe_floor", -140.0),
            ("breaker_margin", 0.0),
            ("endpoint_restart_delay", -10.0),
            ("link_drop_probability", 1.0),
            ("link_drop_probability", -0.1),
        ],
    )
    def test_bad_value_names_the_field(self, field, value):
        subsystem, _, knob = field.partition("_")
        if field in FIELDS:
            construct, knob = AnorConfig, field
        elif field in SUBSYSTEMS:
            construct, knob = SUBSYSTEMS[field], field
        else:
            construct = SUBSYSTEMS[subsystem]
        with pytest.raises(ValueError, match=knob):
            construct(**{knob: value})

    def test_config_forwards_no_subsystem_tuning(self):
        """The knob count only falls: 36 fields, and the subsystem tuning
        parameters are not among them."""
        assert len(FIELDS) == 36
        with pytest.raises(TypeError, match="audit_window"):
            AnorConfig(audit_window=10.0)

    def test_every_field_is_set_by_some_run(self):
        """A knob no run sets is interface that every test and benchmark
        matrix has to cover for nobody: every field must be passed somewhere
        in ``src/``, ``benchmarks/``, ``examples/`` or ``tests/`` — this file
        and ``AnorConfig``'s own range-check tables aside."""
        root = Path(__file__).parent.parent
        passed = set()
        for top in ("src", "benchmarks", "examples", "tests"):
            for path in (root / top).rglob("*.py"):
                if path == Path(__file__):
                    continue
                tree = ast.parse(path.read_text())
                tree.body = [
                    n for n in tree.body if getattr(n, "name", "") != "AnorConfig"
                ]
                passed.update(_config_keys_passed(tree))
        unset = FIELDS - passed
        assert not unset, f"AnorConfig fields no run sets — delete them: {sorted(unset)}"

    def test_optional_none_disables_without_error(self):
        AnorConfig(lease_ttl=None, breaker_margin=None, endpoint_restart_delay=None)

    def test_backoff_ordering_inversion_rejected(self):
        with pytest.raises(ValueError, match="max_backoff"):
            _reliable_link(base_backoff=10.0, max_backoff=1.0)

    def test_timeout_ordering_inversion_rejected(self):
        with pytest.raises(ValueError, match="dead_job_timeout"):
            _manager(stale_status_timeout=60.0, dead_job_timeout=30.0)
