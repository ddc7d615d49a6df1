"""A run imports what it builds (DESIGN.md §7, *Startup*).

Each probe runs in a fresh interpreter and compares sets of module names,
never times: a package ``__init__`` that imports eagerly again, or a feature
module imported at the top of the framework, shows up here as a name.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

#: Packages of the emulated cluster and its off-by-default subsystems.
EMULATED = (
    "repro.core", "repro.hwsim", "repro.geopm", "repro.faults", "repro.durable",
    "repro.plan", "repro.facility", "repro.budget",
)
#: What a default fig9 system must not load: every off-by-default feature,
#: and the other platform.
OFF_BY_DEFAULT = (
    "repro.faults", "repro.durable", "repro.plan", "repro.facility",
    "repro.core.audit", "repro.core.reliable", "repro.tabsim",
    "repro.aqa.bidder", "repro.aqa.session", "repro.aqa.training",
    "repro.telemetry.round",
)

#: One module of each subsystem the hardened config switches on.
FEATURES = (
    "repro.core.audit", "repro.core.reliable", "repro.durable.recovery",
    "repro.facility.breaker", "repro.facility.shed", "repro.faults.injector",
    "repro.geopm.tracer", "repro.plan.planner", "repro.telemetry.round",
    "repro.telemetry.sinks",
)


def _env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}


def _probe(code: str) -> object:
    """Run ``code`` in a fresh interpreter; it prints one JSON value."""
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, check=True, env=_env(),
    )
    return json.loads(out.stdout)


def _under(modules, prefixes) -> list[str]:
    return sorted(
        m for m in modules for p in prefixes if m == p or m.startswith(p + ".")
    )


def test_the_tabular_sweep_loads_no_emulated_cluster():
    loaded = _probe(
        """
        import json, sys
        import repro.experiments.fig11
        print(json.dumps(sorted(sys.modules)))
        """
    )
    # Telemetry too: the sweep builds its simulators without it.
    assert _under(loaded, (*EMULATED, "repro.telemetry")) == []


def test_cli_help_loads_no_emulated_cluster():
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro.cli", "--help"],
        capture_output=True, text=True, check=True, env=_env(),
    )
    assert "usage: anor" in out.stdout
    loaded = [
        line.rsplit("|", 1)[1].strip()
        for line in out.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]
    assert "repro" in loaded  # run as __main__, the module itself is not listed
    assert _under(loaded, EMULATED) == []


def test_a_default_system_loads_no_off_by_default_feature():
    loaded = _probe(
        """
        import json, sys
        from repro.experiments.fig9 import build_demand_response_system

        system = build_demand_response_system(duration=60.0, seed=3)
        system.run(60.0)
        print(json.dumps(sorted(sys.modules)))
        """
    )
    assert "repro.core.framework" in loaded
    assert _under(loaded, OFF_BY_DEFAULT) == []


def test_every_feature_loads_at_construction_not_in_run():
    loaded = _probe(
        """
        import json, sys, tempfile
        from repro.core.framework import AnorConfig
        from repro.experiments.fig9 import (
            DEFAULT_AVERAGE_POWER, DEFAULT_RESERVE, build_demand_response_system,
        )
        from repro.faults.events import FeederLoss, HeadNodeCrash
        from repro.faults.schedule import FaultSchedule

        duration = 300.0
        with tempfile.TemporaryDirectory() as tmp:
            config = AnorConfig(
                seed=5, telemetry_enabled=True, lease_ttl=20.0,
                reliable_messaging=True, audit_enabled=True, plan_enabled=True,
                shed_enabled=True, shed_nominal_watts=DEFAULT_AVERAGE_POWER - DEFAULT_RESERVE,
                breaker_margin=0.2, checkpoint_dir=tmp + "/ckpt", output_dir=tmp + "/out",
            )
            faults = FaultSchedule.standard_load(duration, num_nodes=16).extended([
                FeederLoss(time=120.0, magnitude=0.40, duration=60.0),
                HeadNodeCrash(time=200.0, down_for=20.0),
            ])
            before = sorted(sys.modules)
            system = build_demand_response_system(
                duration=duration, seed=5, config=config, fault_schedule=faults,
            )
            built = sorted(sys.modules)
            result = system.run(duration)
        print(json.dumps({
            "before": before, "built": built, "ran": sorted(sys.modules),
            "head_crashes": result.head_crashes, "faults": len(result.fault_log),
        }))
        """
    )
    assert loaded["head_crashes"] == 1 and loaded["faults"] > 1
    # Each feature loads when the system is built with it ...
    assert _under(loaded["before"], FEATURES) == []
    assert _under(loaded["built"], FEATURES) == sorted(FEATURES)
    # ... and the run itself imports nothing.
    assert sorted(set(loaded["ran"]) - set(loaded["built"])) == []


def test_every_exported_name_resolves():
    unresolved = _probe(
        """
        import importlib, json, pkgutil
        import repro

        bad = []
        packages = ["repro"] + [
            f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
        ]
        for name in packages:
            package = importlib.import_module(name)
            listed = dir(package)
            for export in package.__all__:
                try:
                    getattr(package, export)
                except AttributeError as exc:
                    bad.append(f"{name}.{export}: {exc}")
                if export not in listed:
                    bad.append(f"{name}.{export}: not in dir()")
        print(json.dumps([len(packages), bad]))
        """
    )
    count, bad = unresolved
    assert count == 18
    assert bad == []
