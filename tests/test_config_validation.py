"""Range validation, and the two gates on the knob count.

Most knobs are :class:`AnorConfig` fields: a bad value fails loudly, naming
the field.  A threshold no run ever set is not a knob but a module constant
beside the code that reads it (the manager's heartbeat and recovery
timeouts, the endpoint watchdog's delay, the telemetry ring's size, the
reliable link's backoffs, the plant's idle power); its row here checks that the
constant lies inside the range the deleted constructor check enforced, and
that the row's value does not.  (The auditor's, the breaker's, the shed
ladder's and the planner's are checked where those classes are tested:
``test_audit.py``, ``test_partition_safety.py``, ``test_shed.py``,
``test_plan_planner.py``, ``test_plan_forecast.py``.)

The README, DESIGN and EXPERIMENTS snippets that build an ``AnorConfig`` may
only spell fields that exist (``test_docs_spell_only_real_fields``).

The fault-schedule builders take no shape knobs either: a fault mix is a
mapping from event templates to rates (``test_fault_builders_take_no_shapes``).
Nor does any layer take the node's power envelope, which
``repro.workloads.nas`` states once (``TestNodeEnvelope``).

Run as a script, this file prints the two knob counts, the fields no run
sets (a run is ``src/`` or ``benchmarks/``, as for the constructor count),
the tabular simulator's config fields and parameters no run sets, the
closed choice sets a field picks from with their sizes, the fault
builders' keyword options and the source sizes the ROADMAP north star
quotes, for a CI summary.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from repro import telemetry
from repro.core import cluster_manager, framework, reliable
from repro.core.choices import FORECASTER_KINDS, SHED_CLASSES
from repro.core.framework import AnorConfig
from repro.faults.schedule import FaultSchedule
from repro.workloads import nas
from repro.workloads.nas import IDLE_NODE_POWER, P_NODE_MIN

FIELDS = {f.name for f in dataclasses.fields(AnorConfig)}
ROOT = Path(__file__).parent.parent

#: Modules under ``src/repro`` and the classes of them ``AnorSystem`` builds:
#: every defaulted ``__init__`` parameter of one must be set by some run.
GATED = {
    "core/cluster_manager.py": ("ClusterPowerManager",),
    "core/job_endpoint.py": ("JobTierEndpoint",),
    "modeling/online.py": ("OnlineModeler",),
    "core/audit.py": ("CapComplianceAuditor",),
    "core/reliable.py": ("ReliableLink",),
    "facility/breaker.py": ("PowerBreaker",),
    "facility/shed.py": ("ShedLadder", "ShedController"),
    "plan/envelope.py": ("SafetyEnvelope",),
    "plan/forecast.py": (
        "TargetForecaster", "PersistenceForecaster", "RampForecaster",
        "InvertedRampForecaster", "AR1Forecaster", "ScheduleForecaster",
    ),
    "core/targets.py": ("HoldLastGoodTarget",),
    "budget/even_slowdown.py": ("EvenSlowdownBudgeter",),
    "hwsim/cluster.py": ("EmulatedCluster",),
    "hwsim/node.py": ("Node",),
}
#: The tabular simulator's inputs, reported (not gated) the same way.
TABSIM = {"tabsim/simulator.py": ("SimConfig", "TabularClusterSimulator")}

#: Row -> (the constant that replaced a deleted constructor parameter, the
#: range that parameter's check enforced).
CONSTANTS = {
    "stale_status_timeout": (cluster_manager.STALE_STATUS_TIMEOUT, lambda v: v > 0),
    "dead_job_timeout": (cluster_manager.DEAD_JOB_TIMEOUT, lambda v: v > 0),
    "recovery_timeout": (cluster_manager.RECOVERY_TIMEOUT, lambda v: v > 0),
    "endpoint_restart_delay": (framework.ENDPOINT_RESTART_DELAY, lambda v: v > 0),
    "telemetry_ring_size": (telemetry.RING_SIZE, lambda v: v >= 1),
    "safe_floor": (P_NODE_MIN, lambda v: v > 0),
    "idle_power": (IDLE_NODE_POWER, lambda v: v >= 0),
    "reliable_base_backoff": (reliable.BASE_BACKOFF, lambda v: v > 0),
    "reliable_max_backoff": (reliable.MAX_BACKOFF, lambda v: v >= reliable.BASE_BACKOFF),
    "partition_attempts": (reliable.PARTITION_ATTEMPTS, lambda v: v >= 1),
}


#: The documents whose ``AnorConfig(...)`` snippets must spell real fields.
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)


def doc_config_calls():
    """``(where, keywords)`` of every ``AnorConfig(...)`` call in a python
    block or an inline code span of ``DOCS``; an ellipsis (``…``) may stand
    for the arguments a snippet leaves out."""
    for doc in DOCS:
        text = (ROOT / doc).read_text()
        pieces = [(m.start(2), m.group(2)) for m in FENCE.finditer(text)
                  if m.group(1) == "python"]
        # Inline spans live in the prose: blank every fenced block first.
        prose = FENCE.sub(lambda m: re.sub(r"[^\n]", " ", m.group()), text)
        pieces += [(m.start(1), m.group(1)) for m in re.finditer(r"`([^`]+)`", prose)]
        for offset, source in pieces:
            for m in re.finditer(r"\bAnorConfig\(", source):
                depth, end = 0, len(source)
                for i in range(m.end() - 1, len(source)):
                    depth += {"(": 1, ")": -1}.get(source[i], 0)
                    if depth == 0:
                        end = i + 1
                        break
                call = ast.parse(source[m.start():end].replace("…", "..."), mode="eval")
                line = text.count("\n", 0, offset + m.start()) + 1
                yield f"{doc}:{line}", [k.arg for k in call.body.keywords]


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


def fields_set_under(tops) -> set[str]:
    """:class:`AnorConfig` fields passed somewhere under the directories
    ``tops`` — this file and ``AnorConfig``'s own range-check tables aside."""
    passed = set()
    for top in tops:
        for path in (ROOT / top).rglob("*.py"):
            if path == Path(__file__):
                continue
            tree = ast.parse(path.read_text())
            tree.body = [n for n in tree.body if getattr(n, "name", "") != "AnorConfig"]
            passed.update(_config_keys_passed(tree))
    return passed


def _name(node) -> str | None:
    return getattr(node, "id", getattr(node, "attr", None))


def _signature(cls: ast.ClassDef) -> tuple[list[str], list[str]] | None:
    """(parameter names in order, the defaulted ones) of ``cls``'s own
    ``__init__`` (a dataclass's generated one included), or None when it
    inherits its base's."""
    init = next((f for f in cls.body
                 if isinstance(f, ast.FunctionDef) and f.name == "__init__"), None)
    if init is not None:
        a = init.args
        positional = [p.arg for p in a.posonlyargs + a.args][1:]
        defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
        defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        return positional + [p.arg for p in a.kwonlyargs], defaulted
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    if "dataclass" not in map(_name, decorators):
        return None
    names, defaulted = [], []
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        if "ClassVar" in ast.unparse(stmt.annotation) or (
            isinstance(value, ast.Call) and _name(value.func) == "field"
            and any(k.arg == "init" and getattr(k.value, "value", True) is False
                    for k in value.keywords)
        ):
            continue
        names.append(stmt.target.id)
        if value is not None:
            defaulted.append(stmt.target.id)
    return names, defaulted


def _attribute_stores(node, typed=None):
    """``(annotation of x or None, attr)`` for each ``x.attr = ...`` with x
    not ``self``; x's annotation is known when x is a parameter."""
    if isinstance(node, ast.FunctionDef):
        a = node.args
        typed = {p.arg: ast.unparse(p.annotation)
                 for p in a.posonlyargs + a.args + a.kwonlyargs if p.annotation}
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            for x in ast.walk(target):
                if isinstance(x, ast.Attribute) and isinstance(x.ctx, ast.Store):
                    if _name(x.value) != "self":
                        yield (typed or {}).get(_name(x.value)), x.attr
    for child in ast.iter_child_nodes(node):
        yield from _attribute_stores(child, typed)


def constructor_knobs(gated_modules=GATED) -> tuple[int, list[str]]:
    """(defaulted ``__init__`` parameters of the classes ``gated_modules``
    names, those of them no run sets).  A run is ``src/`` or ``benchmarks/``; ``tests/`` and
    ``examples/`` do not count.  A parameter is set when a call of the class
    passes it by keyword or position (a call of a subclass that inherits the
    ``__init__`` counts), a subclass forwards it through ``super().__init__``,
    one of the class's classmethods passes it to ``cls(...)``, or code
    outside the class assigns it as an attribute (``system.manager.
    correction_gain = 0.0``) of an object not annotated as something else."""
    trees = [ast.parse(p.read_text()) for top in ("src", "benchmarks")
             for p in sorted((ROOT / top).rglob("*.py"))]
    classes = {c.name: c for t in trees for c in ast.walk(t) if isinstance(c, ast.ClassDef)}
    gated = {}
    for module, names in gated_modules.items():
        tree = ast.parse((ROOT / "src" / "repro" / module).read_text())
        for c in ast.walk(tree):
            if isinstance(c, ast.ClassDef) and c.name in names:
                gated[c.name] = _signature(c)

    def owner(name):
        """The class whose ``__init__`` a call of ``name`` runs."""
        while name in classes and _signature(classes[name]) is None:
            name = next(map(_name, classes[name].bases), None)
        return name

    passed = {name: set() for name in gated}

    def credit(name, call):
        name = owner(name)
        if gated.get(name) is not None:
            passed[name].update(gated[name][0][: len(call.args)])
            passed[name].update(k.arg for k in call.keywords if k.arg)

    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name(node.func) in classes:
                credit(_name(node.func), node)
            if not isinstance(node, ast.ClassDef):
                continue
            for method in (f for f in node.body if isinstance(f, ast.FunctionDef)):
                classmethod_ = "classmethod" in map(_name, method.decorator_list)
                for call in (c for c in ast.walk(method) if isinstance(c, ast.Call)):
                    if classmethod_ and _name(call.func) == "cls":
                        credit(node.name, call)
                    if (_name(call.func) == "__init__" and isinstance(call.func.value, ast.Call)
                            and _name(call.func.value.func) == "super"):
                        credit(_name(node.bases[0]), call)
        for annotation, attr in _attribute_stores(tree):
            for name in passed:
                if annotation is None or name in annotation:
                    passed[name].add(attr)
    defaulted = [(name, p) for name, sig in gated.items() if sig for p in sig[1]]
    return len(defaulted), [f"{n}.{p}" for n, p in defaulted if p not in passed[n]]


def fault_builder_options() -> dict[str, list[str]]:
    """The keyword options of each :class:`FaultSchedule` builder."""
    return {
        name: [p.name for p in inspect.signature(getattr(FaultSchedule, name))
               .parameters.values() if p.kind is p.KEYWORD_ONLY]
        for name in ("random", "standard_load")
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
            ("manager_period", float("nan")),
            ("tick", float("inf")),
            ("lease_ttl", float("nan")),
            ("perf_variation_std", float("nan")),
            ("shed_nominal_watts", float("inf")),
            ("retrain_threshold", 0),
            ("num_nodes", 2.5),
            ("retrain_threshold", 2.5),
            ("plan_shadow_rounds", 1.5),
            ("prometheus_port", 9109.0),
            # Outputs of a telemetry that is off: nothing would be written.
            ("trace_path", "trace.jsonl"),
            ("prometheus_port", 9109),
        ],
    )
    def test_bad_value_names_the_field(self, field, value):
        if field in CONSTANTS:
            constant, in_range = CONSTANTS[field]
            assert in_range(constant) and not in_range(value)
            return
        with pytest.raises(ValueError, match=field):
            AnorConfig(**{field: value})

    def test_config_forwards_no_subsystem_tuning(self):
        """The knob count only falls: 29 fields, and the subsystem tuning
        parameters are not among them."""
        assert len(FIELDS) == 29
        with pytest.raises(TypeError, match="audit_window"):
            AnorConfig(audit_window=10.0)

    def test_every_field_is_set_by_some_run(self):
        """A knob no run sets is interface that every test and benchmark
        matrix has to cover for nobody: every field must be passed somewhere
        in ``src/``, ``benchmarks/``, ``examples/`` or ``tests/`` — this file
        and ``AnorConfig``'s own range-check tables aside."""
        unset = FIELDS - fields_set_under(("src", "benchmarks", "examples", "tests"))
        assert not unset, f"AnorConfig fields no run sets — delete them: {sorted(unset)}"

    def test_every_constructor_parameter_is_set_by_some_run(self):
        """The same rule one level down, for the classes ``AnorSystem``
        builds: a defaulted parameter no run passes is a threshold nothing
        tunes, and belongs beside the code that reads it as a named module
        constant with its unit and its reason."""
        _, unset = constructor_knobs()
        assert not unset, (
            f"constructor parameters no run sets — make them constants: {unset}")

    def test_docs_spell_only_real_fields(self):
        """A snippet a reader copies must construct: every keyword of an
        ``AnorConfig(...)`` in the documents is a field."""
        calls = list(doc_config_calls())
        assert calls, "no AnorConfig(...) snippet found in the documents"
        bad = [f"{where}: {k}" for where, keys in calls for k in keys if k not in FIELDS]
        assert not bad, f"documented AnorConfig keywords that are not fields: {bad}"

    def test_fault_builders_take_no_shapes(self):
        """A fault's shape is its template's fields, not a builder keyword."""
        assert fault_builder_options() == {
            "random": ["seed", "num_nodes", "rates"],
            "standard_load": ["num_nodes"],
        }

    def test_telemetry_outputs_construct_with_telemetry_on(self):
        AnorConfig(telemetry_enabled=True, trace_path="trace.jsonl", prometheus_port=0)

    def test_optional_none_disables_without_error(self):
        AnorConfig(lease_ttl=None, breaker_margin=None, shed_nominal_watts=None)

    def test_backoff_ordering_inversion_rejected(self):
        assert reliable.MAX_BACKOFF >= reliable.BASE_BACKOFF

    def test_timeout_ordering_inversion_rejected(self):
        assert cluster_manager.DEAD_JOB_TIMEOUT >= cluster_manager.STALE_STATUS_TIMEOUT


#: The node's power envelope, written once in ``repro.workloads.nas``.
ENVELOPE_WATTS = {nas.IDLE_NODE_POWER, nas.PACKAGE_MIN_POWER, nas.PACKAGE_TDP,
                  nas.P_NODE_MIN, nas.P_NODE_MAX}
#: Where the envelope is read: each module (or one class of it) imports the
#: constants and spells none of their values.
ENVELOPE_READERS = {
    "core/cluster_manager.py": "ClusterPowerManager",  # its module has a 60 s timeout
    "core/round.py": None, "core/audit.py": None, "core/job_endpoint.py": None,
    "durable/state.py": None, "facility/shed.py": None, "facility/breaker.py": None,
    "hwsim/node.py": None, "hwsim/cluster.py": None, "geopm/msr.py": None,
    "tabsim/simulator.py": None, "tabsim/tables.py": None,
}


def envelope_parameters() -> list[str]:
    """Parameters under ``src/repro`` that take the node envelope again: an
    ``__init__`` or dataclass parameter named ``p_node_min``, ``p_node_max``
    or ``idle_power``, another function's ``p_node_min`` / ``p_node_max``,
    ``JobTierEndpoint``'s, ``CapComplianceAuditor``'s and tabsim
    ``NodeTable``'s ``p_min`` / ``p_max``, and ``BudgetRound.p_min``.  ``BudgetRound.idle_power`` is the
    round's idle reservation, idle nodes × ``IDLE_NODE_POWER``, an output of
    triage and not the per-node constant."""
    taken = {"p_node_min", "p_node_max", "idle_power"}
    by_class = {name: taken | {"p_min", "p_max"}
                for name in ("JobTierEndpoint", "CapComplianceAuditor", "NodeTable")}
    by_class["BudgetRound"] = taken - {"idle_power"} | {"p_min"}
    found = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name != "__init__":
                a = node.args
                found += [f"{node.name}({p.arg})" for p in a.posonlyargs + a.args + a.kwonlyargs
                          if p.arg in ("p_node_min", "p_node_max")]
            if isinstance(node, ast.ClassDef) and (sig := _signature(node)):
                found += [f"{node.name}.{p}" for p in sig[0]
                          if p in by_class.get(node.name, taken)]
    return found


def envelope_literals() -> list[str]:
    """Numeric literals equal to an envelope value in ``ENVELOPE_READERS``."""
    found = []
    for module, cls in ENVELOPE_READERS.items():
        tree = ast.parse((ROOT / "src" / "repro" / module).read_text())
        if cls is not None:
            tree = next(c for c in ast.walk(tree)
                        if isinstance(c, ast.ClassDef) and c.name == cls)
        found += [f"{module}:{n.lineno} {n.value!r}" for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and type(n.value) in (int, float)
                  and n.value in ENVELOPE_WATTS]
    return found


class TestNodeEnvelope:
    """Two packages of 70–140 W and a 60 W idle draw are one decision, made
    in ``repro.workloads.nas`` (paper §5.5): no layer takes it as a
    parameter or restates it as a number."""

    def test_no_class_or_function_takes_the_envelope(self):
        assert not envelope_parameters(), envelope_parameters()

    def test_no_reader_spells_its_values(self):
        assert not envelope_literals(), envelope_literals()

    def test_the_node_pair_is_the_package_pair_times_the_count(self):
        assert nas.P_NODE_MIN == nas.NODE_PACKAGES * nas.PACKAGE_MIN_POWER == 140.0
        assert nas.P_NODE_MAX == nas.NODE_PACKAGES * nas.PACKAGE_TDP == 280.0
        assert nas.IDLE_NODE_POWER == 60.0


def source_lines() -> dict[str, int]:
    """Line counts the ROADMAP quotes: all of ``src/``, five modules,
    ``hwsim/``, ``durable/`` and ``telemetry/``, and all of ``tests/`` (code
    moved from ``src/`` into a test is not a reduction)."""
    repro = ROOT / "src" / "repro"

    def lines(paths) -> int:
        return sum(len(p.read_text().splitlines()) for p in paths)

    sizes = {"src/": lines((ROOT / "src").rglob("*.py"))}
    for module in (
        "core/framework.py", "core/cluster_manager.py", "experiments/resilience.py",
        "experiments/scorecard.py", "invariants.py",
    ):
        sizes[module.split("/")[-1]] = lines([repro / module])
    for package in ("hwsim", "durable", "telemetry"):
        sizes[f"{package}/"] = lines((repro / package).rglob("*.py"))
    sizes["tests/"] = lines((ROOT / "tests").rglob("*.py"))
    return sizes


if __name__ == "__main__":
    print(f"AnorConfig fields: {len(FIELDS)}; defaulted constructor parameters "
          f"of the classes AnorSystem builds: {constructor_knobs()[0]}")
    print("AnorConfig fields no run (src/, benchmarks/) sets: "
          + ", ".join(sorted(FIELDS - fields_set_under(("src", "benchmarks")))))
    print("SimConfig fields and TabularClusterSimulator parameters no run sets: "
          + ", ".join(constructor_knobs(TABSIM)[1]))
    print("Closed choice sets: " + "; ".join(
        f"{name} {len(kinds)} ({', '.join(kinds)})"
        for name, kinds in (("plan_forecaster kinds", FORECASTER_KINDS),
                            ("shed classes", SHED_CLASSES))))
    print("FaultSchedule keyword options: " + "; ".join(
        f"{name} {len(options)} ({', '.join(options)})"
        for name, options in fault_builder_options().items()))
    print("Lines: " + ", ".join(f"{name} {n}" for name, n in source_lines().items()))
