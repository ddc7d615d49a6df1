"""End-to-end head-node crash recovery tests (checkpoint/journal + warm restart)."""

import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.cluster_manager import DEAD_JOB_TIMEOUT, ClusterPowerManager
from repro.core.framework import AnorConfig, AnorSystem
from repro.core.targets import ConstantTarget, HoldLastGoodTarget
from repro.durable.checkpoint import write_checkpoint
from repro.durable.state import JOB_EVICT, apply_journal, empty_state, job_entry
from repro.durable.store import DurableStore
from repro.experiments.fig9 import build_demand_response_system
from repro.experiments.resilience import _SHED_CLASS_MAP, _SHED_INCIDENTS
from repro.faults.events import (
    CorruptStatus,
    DemandResponseEmergency,
    EndpointCrash,
    HeadNodeCrash,
    HeadNodeRestart,
    MeterOutage,
    NodeCrash,
)
from repro.faults.schedule import FaultSchedule
from repro.invariants import RoundMonitor, double_admitted
from repro.telemetry.top import snapshot_system
from repro.workloads.trace import JobRequest, Schedule
from tests.livehead import FoldMonitor, live_state, phases, unstamped

TYPES = ["bt", "cg", "ft", "lu", "mg", "sp"]


@pytest.fixture(autouse=True)
def recovery_window(monkeypatch):
    """Every head restart here reconciles within 25 s, not the default 30."""
    monkeypatch.setattr("repro.core.cluster_manager.RECOVERY_TIMEOUT", 25.0)


def build_system(
    *,
    checkpoint_dir=None,
    fault_schedule=None,
    seed=3,
    n_jobs=6,
    target=16 * 170.0,
    checkpoint_period=20.0,
    monitors=(),
    **cfg_kwargs,
):
    schedule = Schedule(
        [
            JobRequest(
                submit_time=float(i),
                job_id=f"j{i:02d}",
                type_name=TYPES[i % len(TYPES)],
                nodes=4,
            )
            for i in range(n_jobs)
        ]
    )
    cfg = AnorConfig(
        seed=seed,
        checkpoint_dir=checkpoint_dir,
        checkpoint_period=checkpoint_period,
        **cfg_kwargs,
    )
    return AnorSystem(
        target_source=ConstantTarget(target),
        schedule=schedule,
        config=cfg,
        fault_schedule=fault_schedule,
        monitors=monitors,
    )


class TestCrashRecoveryEndToEnd:
    def test_recovery_preserves_jobs_and_budget_invariant(self, tmp_path):
        crash = FaultSchedule([HeadNodeCrash(time=120.0, down_for=30.0)])
        monitor = RoundMonitor()
        system = build_system(
            checkpoint_dir=str(tmp_path / "store"), fault_schedule=crash,
            monitors=[monitor],
        )
        result = system.run(until_idle=True, max_time=6000.0)
        # Every submitted job drains despite the outage.
        assert result.unstarted_jobs == 0
        assert len(result.completed) == 6
        assert result.head_crashes == 1
        # The round invariants (planned ≤ ceiling among them) hold through
        # crash, outage and recovery: the restarted manager is monitored too.
        assert [row[0] for row in monitor.rows if row[0] > 150.0]
        assert not monitor.violations
        # Warm restart: the checkpoint+journal brought jobs back.
        assert any("restarted warm" in line for line in result.recovery_log)

    def test_live_jobs_reconcile_with_precrash_models(self, tmp_path):
        system = build_system(checkpoint_dir=str(tmp_path / "store"))
        # Run until the manager has accepted online models.
        for _ in range(200):
            system.step()
        pre = {
            jid: (r.online_model.a, r.online_model.b, r.online_model.c)
            for jid, r in system.manager.jobs.items()
            if r.online_model is not None
        }
        assert pre, "no online models accepted in 200 s — setup is wrong"
        system.crash_head_node()
        for _ in range(10):
            system.step()
        system.restart_head_node()
        # Before any re-HELLO lands, the restored recovery entries carry the
        # exact pre-crash coefficients out of the checkpoint+journal.
        assert system.manager.in_recovery
        for jid, coeffs in pre.items():
            recovered = system.manager.jobs[jid]
            assert recovered.link is None and recovered.online_model is not None
            m = recovered.online_model
            assert (m.a, m.b, m.c) == pytest.approx(coeffs)
        # Re-HELLOs then merge that state warm (models keep refitting live
        # afterwards, so we assert the merge event, not frozen coefficients).
        for _ in range(10):
            system.step()
        assert system.manager.recovery_merges > 0
        assert any("model restored" in e for e in system.manager.events)

    def test_top_shows_a_restored_job_as_recovering(self, tmp_path):
        system = build_system(
            checkpoint_dir=str(tmp_path / "store"), telemetry_enabled=True
        )
        for _ in range(100):
            system.step()
        system.crash_head_node()
        system.restart_head_node()
        jobs = snapshot_system(system)["jobs"]
        assert jobs and {job["model"] for job in jobs} == {"recovering"}
        for _ in range(10):  # every endpoint re-HELLOs
            system.step()
        jobs = snapshot_system(system)["jobs"]
        assert jobs and "recovering" not in {job["model"] for job in jobs}

    def test_recovery_is_exact_after_long_runs_of_repeated_statuses(self, tmp_path):
        """A fit is journalled once, then repeated for tens of statuses that
        write nothing; whether a checkpoint or only the journal tail covers
        it, the restarted head gets the coefficients bit for bit."""
        system = build_system(checkpoint_dir=str(tmp_path / "store"))
        manager = system.manager
        repeats: dict[str, int] = {}
        on_status, record_fit = manager._on_status, manager._record_fit

        def counting_status(msg, now):
            if msg.has_model:
                repeats[msg.job_id] = repeats.get(msg.job_id, 0) + 1
            on_status(msg, now)

        def counting_fit(record, now):
            repeats[record.job_id] = 0
            record_fit(record, now)

        manager._on_status, manager._record_fit = counting_status, counting_fit
        for _ in range(400):
            system.step()
            held = [j for j, r in manager.jobs.items() if r.online_model is not None]
            if len(held) >= 2 and max(repeats[j] for j in held) >= 30:
                break
        # At the crash one fit has gone ≥ 30 statuses without a journal
        # record, and the head has heard hundreds of repeats in all.
        assert len(held) >= 2 and max(repeats[j] for j in held) >= 30, repeats
        pre = {
            jid: (r.online_model.a, r.online_model.b, r.online_model.c,
                  r.online_r2, r.last_cap)
            for jid, r in manager.jobs.items()
            if jid in held
        }
        system.crash_head_node()
        for _ in range(10):
            system.step()
        system.restart_head_node()
        assert system.manager.in_recovery
        for jid in held:
            m = system.manager.jobs[jid]
            assert m.link is None
            assert (m.online_model.a, m.online_model.b, m.online_model.c,
                    m.online_r2, m.last_cap) == pre[jid]

    def test_warm_endpoint_restart_seeds_modeler(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.core.framework.ENDPOINT_RESTART_DELAY", 10.0)
        system = build_system(checkpoint_dir=str(tmp_path / "store"))
        for _ in range(200):
            system.step()
        candidates = [
            jid
            for jid, r in system.manager.jobs.items()
            if r.online_model is not None and jid in system.cluster.running
        ]
        assert candidates
        victim = candidates[0]
        model = system.manager.jobs[victim].online_model
        system.crash_endpoint(victim)
        for _ in range(15):
            system.step()
        endpoint = system.endpoints[victim]
        assert endpoint.modeler.seeded
        assert endpoint.modeler.model.a == pytest.approx(model.a)
        assert endpoint.modeler.model.c == pytest.approx(model.c)

    def test_node_crash_during_outage_requeues_via_orphan_path(self, tmp_path):
        system = build_system(checkpoint_dir=str(tmp_path / "store"))
        for _ in range(100):
            system.step()
        system.crash_head_node()
        victim = sorted(system.cluster.running)[0]
        node_id = system.cluster.running[victim].nodes[0].node_id
        system.crash_node(node_id)
        for _ in range(20):
            system.step()
        system.restart_head_node()
        result = system.run(until_idle=True, max_time=6000.0)
        assert victim in result.orphaned
        assert victim in result.requeued
        assert any(
            t.job_id == victim for t in result.completed
        ), "orphan-requeued job never completed"

    def test_node_crash_after_warm_restart_requeues_a_precrash_job(self, tmp_path):
        """A warm restart rebuilds the head's launched jobs from the
        persisted specs: a job launched before the crash is still requeued,
        not dropped, when its node fails after the restart."""
        system = build_system(checkpoint_dir=str(tmp_path / "store"))
        for _ in range(100):
            system.step()
        victim = sorted(system.cluster.running)[0]
        system.crash_head_node()
        before = system._launched[victim]
        for _ in range(10):
            system.step()
        system.restart_head_node()
        assert any("restarted warm" in line for line in system.recovery_log)
        live = system.cluster.running[victim]
        assert system._launched[victim] is not before  # read back from the store
        for _ in range(10):
            system.step()
        system.crash_node(live.nodes[0].node_id)
        assert any(f"job {victim} killed and requeued" in w for w in system.warnings)
        result = system.run(until_idle=True, max_time=6000.0)
        assert victim in result.requeued
        assert any(t.job_id == victim for t in result.completed)

    @pytest.mark.parametrize("checkpointing", [True, False], ids=["warm", "cold"])
    def test_job_that_dies_in_the_outage_before_its_hello_is_requeued(
        self, tmp_path, checkpointing
    ):
        """Feature matrix, "two overlapping link bursts across a head
        restart": a job whose HELLO the head had not yet read at the crash
        was in the running view but not in the manager's table, so no
        recovery entry waited for it and its death in the outage went
        unnoticed: it was neither completed nor dropped.  Cold restarts
        (an empty table) lost every job that died in the outage this way."""
        system = build_system(
            checkpoint_dir=str(tmp_path / "store") if checkpointing else None
        )
        system.step()  # t=1: j00 launches; its HELLO is still on the wire
        assert "j00" in system._launched and "j00" not in system.manager.jobs
        system.crash_head_node()
        system.crash_node(system.cluster.running["j00"].nodes[0].node_id)
        for _ in range(10):
            system.step()
        system.restart_head_node()
        restored = system.manager.jobs["j00"]
        assert restored.link is None and restored.last_cap is None
        result = system.run(until_idle=True, max_time=6000.0)
        assert "j00" in result.orphaned and "j00" in result.requeued
        assert sorted(t.job_id for t in result.completed) == [
            f"j{i:02d}" for i in range(6)
        ]

    def test_node_crash_inside_the_recovery_window_requeues_once(self, tmp_path):
        """Feature matrix (durable + shed, seed 3021): a restored job that
        had not re-HELLOed yet lost its node with the head up, was requeued,
        and was then declared an orphan when the window closed on its
        recovery entry: reconciled a second time (at the parent as a drop
        record for a job sitting in the queue)."""
        system = build_system(checkpoint_dir=str(tmp_path / "store"))
        for _ in range(100):
            system.step()
        victim = sorted(system.cluster.running)[0]
        system.crash_head_node()
        system.crash_endpoint(victim)  # nobody left to re-HELLO for it
        for _ in range(10):
            system.step()
        system.restart_head_node()
        for _ in range(5):
            system.step()
        assert system.manager.jobs[victim].link is None
        system.crash_node(system.cluster.running[victim].nodes[0].node_id)
        result = system.run(until_idle=True, max_time=6000.0)
        assert victim in result.orphaned
        assert result.requeued.count(victim) == 1
        assert [t.job_id for t in result.completed].count(victim) == 1
        assert not any("not requeued" in line for line in result.recovery_log)

    def test_cold_restart_without_checkpointing(self):
        system = build_system(checkpoint_dir=None)
        for _ in range(100):
            system.step()
        running_before = set(system.cluster.running)
        system.crash_head_node()
        for _ in range(10):
            system.step()
        system.restart_head_node()
        result = system.run(until_idle=True, max_time=6000.0)
        assert any("restarted cold" in line for line in result.recovery_log)
        # Surviving jobs still drain: their endpoints re-HELLO into the
        # fresh manager even though all learned state was lost.
        done = {t.job_id for t in result.completed}
        assert running_before <= done

    def test_corrupt_checkpoint_cold_starts_with_incident(self, tmp_path):
        """A cold start over a refused store keeps what it held: the queue,
        the running set and the requeues it re-read stand in for the lost
        checkpoint, so the checkpoint after it writes them, and a second
        crash restores them."""
        store_dir = tmp_path / "store"
        system = build_system(checkpoint_dir=str(store_dir))
        for _ in range(50):
            system.step()
        victim = sorted(system.cluster.running)[0]
        system.crash_node(system.cluster.running[victim].nodes[0].node_id)
        for _ in range(10):
            system.step()
        system.crash_head_node()
        ck = DurableStore(store_dir).newest_slot
        assert ck is not None and ck.exists()
        with ck.open("r+b") as slot:  # tear its payload: the crc fails
            slot.seek(len(slot.readline()) + 10)
            slot.write(b"\0" * 25)
        # The older slot's watermark lies below the journal's base.
        for _ in range(5):
            system.step()
        system.restart_head_node()
        assert any("checkpoint rejected" in line for line in system.recovery_log)
        assert any("cold start" in line for line in system.recovery_log)
        held = live_state(system)
        assert held["queue"] and held["running"] and held["requeued"] == [victim]
        assert unstamped(system.durable.state) == held
        system.step()  # the checkpoint after the cold start lands
        assert system.durable.checkpoints_written == 1
        assert system.crash_head_node() and system.restart_head_node()
        assert "restarted warm" in system.recovery_log[-1]
        restored = live_state(system)
        for key in ("pending_index", "queue", "running", "attempts", "requeued"):
            assert restored[key] == held[key], key
        result = system.run(until_idle=True, max_time=6000.0)
        assert result.unstarted_jobs == 0
        assert result.requeued == [victim] and not double_admitted(result)

    def test_a_checkpoint_inside_the_recovery_window_keeps_the_unheard_jobs(
        self, tmp_path
    ):
        """The head dies with a launched job's HELLO in flight, so the
        restarted head holds a linkless record no journal record wrote.  A
        checkpoint inside the recovery window writes it, and the next restart
        reserves the same records as the first."""
        system = build_system(checkpoint_dir=str(tmp_path / "store"), n_jobs=8)
        for _ in range(100):
            system.step()
        while not set(system._launched) - set(system.manager.jobs):
            system.step()
        (in_flight,) = set(system._launched) - set(system.manager.jobs)
        system.crash_head_node()
        system.crash_endpoint(in_flight)  # nobody left to re-HELLO for it
        for _ in range(5):
            system.step()
        system.restart_head_node()
        first = {job_id: job_entry(r) for job_id, r in system.manager.jobs.items()}
        assert first[in_flight]["last_cap"] is None
        written = system.durable.checkpoints_written
        while system.durable.checkpoints_written == written:
            system.step()
        assert system.manager.in_recovery
        assert system.manager.jobs[in_flight].link is None
        payload, _ = system.durable.load()
        assert payload["state"]["manager"]["jobs"][in_flight] == first[in_flight]
        assert system.crash_head_node() and system.restart_head_node()
        second = system.manager.jobs
        assert list(second) == list(first)
        assert all(record.link is None for record in second.values())
        assert job_entry(second[in_flight]) == first[in_flight]

    def test_crash_on_checkpoint_cadence_boundary(self, tmp_path):
        # Gates anchor at the first tick (t=1), so with period 20 the
        # checkpoint fires at 1, 21, 41...  Crash exactly at a boundary:
        # the fault tick runs before the cadence, so the would-be write is
        # lost and recovery replays the previous checkpoint + journal tail.
        crash = FaultSchedule([HeadNodeCrash(time=41.0, down_for=20.0)])
        system = build_system(
            checkpoint_dir=str(tmp_path / "store"), fault_schedule=crash
        )
        result = system.run(until_idle=True, max_time=6000.0)
        assert result.head_crashes == 1
        assert result.unstarted_jobs == 0
        assert len(result.completed) == 6
        assert any("restarted warm" in line for line in result.recovery_log)

    def test_watchdog_restart_deferred_while_head_down(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.core.framework.ENDPOINT_RESTART_DELAY", 10.0)
        schedule = FaultSchedule(
            [
                EndpointCrash(time=100.0),
                HeadNodeCrash(time=105.0, down_for=30.0),
            ]
        )
        system = build_system(
            checkpoint_dir=str(tmp_path / "store"),
            fault_schedule=schedule,
        )
        result = system.run(until_idle=True, max_time=6000.0)
        restart_lines = [
            w for w in result.warnings if "endpoint for job" in w and "restarted" in w
        ]
        assert restart_lines, "watchdog restart never happened"
        # Due at t=110 while the head was down (105–135): must fire after.
        t = float(restart_lines[0].split("t=")[1].split(":")[0])
        assert t >= 135.0

    def test_a_job_the_shed_ladder_killed_stays_dead_across_a_head_crash(
        self, tmp_path
    ):
        """The shed drill's workload with a head crash four seconds after the
        blackstart rung kills its preemptible jobs, and no checkpoint in
        between (gates fire at 1 + 45k): the restarted head replays the
        kills from the journal tail.  A replay that kept them in the running
        view would have the recovery window declare each one an orphan that
        "died during the head-node outage" and requeue it."""
        config = AnorConfig(
            num_nodes=16, seed=11, shed_enabled=True,
            shed_classes=dict(_SHED_CLASS_MAP),
            checkpoint_dir=str(tmp_path / "store"), checkpoint_period=45.0,
        )
        system = build_demand_response_system(
            duration=900.0, utilization=0.9, num_nodes=16, seed=11,
            target_source=ConstantTarget(16 * 180.0), config=config,
            fault_schedule=FaultSchedule(
                [*_SHED_INCIDENTS, HeadNodeCrash(time=665.0, down_for=20.0)]
            ),
        )
        # Past the restart (685 s) and its recovery window (25 s).
        result = system.run(720.0)
        killed = {
            line.split()[2] for line in result.warnings if "killed by power shed" in line
        }
        assert len(killed) == 7 and result.head_crashes == 1
        assert not any("died during the head-node outage" in line
                       for line in result.recovery_log)
        assert not killed & (set(system._launched) | set(system.cluster.running))
        assert not killed & {req.job_id for req in system._queue}

    def test_an_orphan_still_running_stays_launched_across_a_second_crash(
        self, tmp_path
    ):
        """An orphan whose endpoint died in the outage is still running:
        the manager forgets its record, the head keeps it launched.  A second
        crash before the next checkpoint replays that: the job still counts
        as launched, so the watchdog finds its spec when it re-attaches the
        endpoint, and a node crash requeues the job instead of dropping it."""
        system = build_system(
            checkpoint_dir=str(tmp_path / "store"), checkpoint_period=60.0
        )
        for _ in range(100):
            system.step()
        system.crash_head_node()
        for _ in range(10):
            system.step()
        system.restart_head_node()  # t=110; the window closes at t=135
        victim = sorted(system.cluster.running)[0]
        system.crash_endpoint(victim)  # its watchdog is due at t=140
        for _ in range(28):
            system.step()
        assert any(f"job {victim} silent past the recovery window" in line
                   for line in system.recovery_log)
        assert victim in system._launched
        # The checkpoint at t=121 predates the orphan: the second restart
        # replays it from the journal tail.
        system.crash_head_node()  # t=138
        for _ in range(5):
            system.step()
        system.restart_head_node()
        assert victim in system._launched
        for _ in range(5):
            system.step()
        assert victim in system.endpoints  # the watchdog re-attached it
        system.crash_node(system.cluster.running[victim].nodes[0].node_id)
        assert any(f"job {victim} killed and requeued" in w for w in system.warnings)
        result = system.run(until_idle=True, max_time=6000.0)
        assert [t.job_id for t in result.completed].count(victim) == 1


class TestRestartCancelledIncidents:
    def test_cancelled_when_job_no_longer_running(self):
        system = build_system()
        for _ in range(50):
            system.step()
        system._endpoint_restarts.append((system.cluster.clock.now + 1.0, "ghost-job"))
        for _ in range(3):
            system.step()
        assert any(
            "restart-cancelled for job ghost-job (job no longer running)" in w
            for w in system.warnings
        )

    def test_cancelled_when_endpoint_already_attached(self):
        system = build_system()
        for _ in range(50):
            system.step()
        jid = sorted(system.cluster.running)[0]
        assert jid in system.endpoints
        system._endpoint_restarts.append((system.cluster.clock.now + 1.0, jid))
        for _ in range(3):
            system.step()
        assert any(
            f"restart-cancelled for job {jid} (endpoint already attached)" in w
            for w in system.warnings
        )


class TestDeterminism:
    MIXED = [
        NodeCrash(time=60.0, node_id=2, down_for=120.0),
        EndpointCrash(time=80.0),
        HeadNodeCrash(time=120.0, down_for=30.0),
        MeterOutage(time=170.0, duration=40.0),
        HeadNodeCrash(time=260.0, down_for=float("inf")),
        HeadNodeRestart(time=300.0),
    ]

    def _run(self, tmp_path, tag):
        system = build_system(
            checkpoint_dir=str(tmp_path / tag),
            fault_schedule=FaultSchedule(self.MIXED),
        )
        return system.run(until_idle=True, max_time=6000.0)

    def test_same_seed_and_schedule_is_bit_identical(self, tmp_path):
        a = self._run(tmp_path, "a")
        b = self._run(tmp_path, "b")
        assert a.fault_log == b.fault_log
        assert a.recovery_log == b.recovery_log
        assert a.warnings == b.warnings
        assert a.power_trace.tobytes() == b.power_trace.tobytes()
        assert [t.job_id for t in a.completed] == [t.job_id for t in b.completed]

    def test_double_crash_with_scripted_restart(self, tmp_path):
        result = self._run(tmp_path, "c")
        assert result.head_crashes == 2
        assert result.unstarted_jobs == 0


class TestLiveStateRoundTrip:
    def test_capture_save_load_replay_equality(self, tmp_path):
        store_dir = tmp_path / "store"
        system = build_system(checkpoint_dir=str(store_dir))
        for _ in range(90):
            system.step()
        snap = live_state(system)
        assert unstamped(system.durable.state) == snap
        system.durable.save_checkpoint({"state": system.durable.state})
        system.durable.close()
        payload, replay = DurableStore(store_dir).load()
        assert unstamped(payload["state"]) == snap
        # The embedded watermark covers the whole journal: nothing replays.
        assert replay.records == []

    @pytest.mark.parametrize("steps", [25, 41, 60, 90])
    def test_restore_is_the_inverse_of_capture(self, tmp_path, steps):
        """Through the store and a head restart, not only up to the store:
        a queue, a running set, a requeue and a manager record whose job is
        already dead all come back as they were captured."""
        system = build_system(checkpoint_dir=str(tmp_path / "store"))
        for _ in range(steps):
            system.step()
        victim = sorted(system.cluster.running)[0]
        system.crash_node(system.cluster.running[victim].nodes[0].node_id)
        for _ in range(3):
            system.step()
        now, gates = system.cluster.clock.now, phases(system)
        snap = live_state(system)
        assert snap["queue"] and snap["running"] and snap["requeued"] == [victim]
        assert victim in snap["manager"]["jobs"] and victim not in snap["running"]
        assert unstamped(system.durable.state) == snap
        system.durable.save_checkpoint(
            {"state": {**system.durable.state, "now": now, "gates": gates}}
        )
        assert system.crash_head_node() and system.restart_head_node()
        restored = live_state(system)
        assert restored.keys() == snap.keys()
        for key in snap:
            assert restored[key] == snap[key], key
        assert phases(system) == gates

    def test_a_slot_torn_before_its_reset_restarts_warm_from_the_older_one(
        self, tmp_path, monkeypatch
    ):
        """The head dies writing a checkpoint: the slot it was writing is
        torn, the journal was not reset yet, so the other slot and the
        journal since it rebuild the head as it was at the crash.  The gates'
        fire counts, which no record journals, come from the older slot, as
        after any restart: grid instants since collapse into one firing.  The
        refused slot is one incident and one line."""
        system = build_system(
            checkpoint_dir=str(tmp_path / "store"), telemetry_enabled=True
        )
        for _ in range(70):  # checkpoints at t = 1, 21, 41 and 61
            system.step()
        snap, gates = live_state(system), phases(system)

        def torn_write(path, payload, *, generation):
            write_checkpoint(path, payload, generation=generation)
            with open(path, "r+b") as slot:
                slot.seek(len(slot.readline()) + 10)
                slot.write(b"\0" * 25)
            raise KeyboardInterrupt  # the head dies mid-write

        monkeypatch.setattr("repro.durable.store.write_checkpoint", torn_write)
        with pytest.raises(KeyboardInterrupt):
            system.durable.save_checkpoint({"state": system.durable.state})
        monkeypatch.undo()
        assert system.crash_head_node() and system.restart_head_node()
        assert any("restarted warm" in line for line in system.recovery_log)
        refused = [line for line in system.recovery_log if "slot refused" in line]
        assert len(refused) == 1 and "checksum mismatch" in refused[0]
        assert system.telemetry.incident_counts["checkpoint-slot-refused"] == 1
        restored = live_state(system)
        assert restored.keys() == snap.keys()
        for key in snap:
            assert restored[key] == snap[key], key
        assert phases(system) == {"manager": [1.0, 61], "checkpoint": [1.0, 4]}
        assert gates == {"manager": [1.0, 70], "checkpoint": [1.0, 4]}

    def test_restored_jobs_are_linkless_records_of_the_one_table(self, tmp_path):
        """A warm restart puts every restored job into ``manager.jobs``, with
        no link, in the order the checkpoint and its journal tail hold them.
        A re-HELLO moves its job behind the ones still awaiting theirs, so a
        checkpoint lists the restored jobs first, then the reconnected ones in
        the order they reconnected, byte for byte."""
        store_dir = tmp_path / "store"
        system = build_system(checkpoint_dir=str(store_dir))
        for _ in range(100):
            system.step()
        system.crash_head_node()
        silent = sorted(system.cluster.running)[0]
        system.crash_endpoint(silent)  # nobody left to re-HELLO for it
        for _ in range(10):
            system.step()
        store = DurableStore(store_dir)
        payload, tail = store.load()
        store.close()
        held = list(apply_journal(payload["state"], tail.records)["manager"]["jobs"])
        assert silent in held and len(held) >= 3
        system.restart_head_node()
        manager = system.manager
        assert list(manager.jobs) == held
        assert all(record.link is None for record in manager.jobs.values())
        hellos: list[str] = []
        on_hello = manager._on_hello

        def recording_hello(msg, link, now):
            hellos.append(msg.job_id)
            on_hello(msg, link, now)

        manager._on_hello = recording_hello
        for _ in range(5):
            system.step()
        assert manager.recovery_merges >= 2 and manager.jobs[silent].link is None
        waiting = [job_id for job_id in held if job_id not in hellos]
        expected = {
            job_id: job_entry(manager.jobs[job_id])
            for job_id in [*waiting, *dict.fromkeys(hellos)]
            if job_id in manager.jobs
        }
        captured = live_state(system)
        assert json.dumps(captured["manager"]["jobs"]) == json.dumps(expected)

    def test_the_journal_counter_counts_every_record(self, tmp_path):
        """Scheduler and manager records alike: the counter reads what the
        store holds, the records its checkpoint covers plus the tail."""
        system = build_system(
            checkpoint_dir=str(tmp_path / "store"), checkpoint_period=1000.0,
            telemetry_enabled=True,
        )
        for _ in range(120):
            system.step()
        payload, replay = system.durable.load()
        stored = payload["journal_seq"] + len(replay.records)
        assert {rec.type for rec in replay.records} >= {"job-admit", "cap-decision"}
        assert system.telemetry.registry.get_value("anor_journal_records_total") == stored

    def test_checkpointing_off_means_no_store_touched(self, tmp_path):
        system = build_system(checkpoint_dir=None)
        for _ in range(50):
            system.step()
        assert system.durable is None
        assert list(tmp_path.iterdir()) == []


class TestJournalFoldMatchesLiveHead:
    """A restarted head is what the store's journal fold held, so the fold
    must track the live head.  At the end of every round of a run with the
    shed ladder, node crashes, an endpoint crash and two head crashes, the
    fold equals the live head, trim and target hold included; and at every
    checkpoint, the previous checkpoint plus the journal since folds to what
    the head is about to write."""

    def test_previous_checkpoint_plus_tail_equals_the_next(
        self, tmp_path, monkeypatch
    ):
        checked = []
        save = DurableStore.save_checkpoint

        def checking_save(store, payload):
            previous, tail = store.load()
            folded = apply_journal(
                previous["state"] if previous is not None else empty_state(),
                tail.records,
            )
            live = payload["state"]
            assert unstamped(folded) == unstamped(live), live["now"]
            checked.append(live["now"])
            save(store, payload)

        monkeypatch.setattr(DurableStore, "save_checkpoint", checking_save)
        faults = FaultSchedule([
            NodeCrash(time=70.0, node_id=1, down_for=60.0),
            # Blackstart: a preemptible job killed, a checkpointable one
            # preempted; the head crashes before the next checkpoint.
            DemandResponseEmergency(time=100.0, magnitude=0.55, duration=60.0),
            HeadNodeCrash(time=110.0, down_for=10.0),
            # Silent through the recovery window, still running: an orphan
            # the head keeps launched, then a second crash replays that.
            EndpointCrash(time=120.0),
            HeadNodeCrash(time=150.0, down_for=10.0),
            NodeCrash(time=175.0, node_id=5, down_for=60.0),
        ])
        fold = FoldMonitor()
        system = fold.system = build_system(
            checkpoint_dir=str(tmp_path / "store"), fault_schedule=faults,
            n_jobs=10, checkpoint_period=45.0, shed_enabled=True,
            shed_classes=dict(_SHED_CLASS_MAP), monitors=[fold],
        )
        result = system.run(until_idle=True, max_time=3000.0)
        assert result.head_crashes == 2 and result.unstarted_jobs == 0
        assert any("killed by power shed" in w for w in result.warnings)
        assert any("still running" in line for line in result.recovery_log)
        assert len(checked) >= 15
        assert fold.rounds >= 800 and not fold.mismatches, fold.mismatches[:5]


class TestKeptRequestsAreNotState:
    def test_a_warm_restart_starts_every_record_without_a_request(self, tmp_path):
        """The request triage keeps on a record is derived: no checkpoint
        entry carries it, and a restarted head's records start without."""
        system = build_system(checkpoint_dir=str(tmp_path / "store"))
        for _ in range(100):
            system.step()
        records = system.manager.jobs.values()
        assert any(r.request is not None for r in records)
        for record in records:
            bare = dataclasses.replace(record, request=None)
            assert json.dumps(job_entry(record)) == json.dumps(job_entry(bare))
        system.crash_head_node()
        for _ in range(10):
            system.step()
        system.restart_head_node()
        assert system.manager.jobs
        assert all(r.request is None for r in system.manager.jobs.values())


class TestHeadStateInventory:
    """Every piece of head state is either in the checkpoint or rebuilt
    fresh by a restart, and every ``job-evict`` kind has a replay meaning."""

    #: ``ClusterPowerManager`` state a checkpoint carries.
    PERSISTED = {"jobs", "_correction", "target_hold"}
    #: What a restarted head builds fresh.
    RESET = {"events", "last_round", "enforcement",
             "admission_held", "recovery_merges", "hello_merges",
             "_recovery_deadline", "_links"}

    def test_every_manager_state_field_is_persisted_or_reset(self):
        state = {f.name for f in dataclasses.fields(ClusterPowerManager) if not f.init}
        assert not self.PERSISTED & self.RESET
        assert state == self.PERSISTED | self.RESET

    def test_the_persisted_fields_are_what_capture_state_writes(self):
        system = build_system()
        for _ in range(60):
            system.step()
        mgr = system.manager
        probe = next(iter(mgr.jobs.values()))
        base = live_state(system)

        def changed(value):
            if isinstance(value, HoldLastGoodTarget):
                hold = HoldLastGoodTarget(floor=value.floor)
                hold.restore_state({**value.state_dict(), "degraded_reads": -1})
                return hold
            if isinstance(value, bool):
                return not value
            if isinstance(value, (int, float)):
                return value + 1
            if isinstance(value, dict):
                return {**value, "probe": probe}
            if isinstance(value, list):
                return [*value, None]
            return 1.0

        for name in sorted(self.PERSISTED | self.RESET):
            held = getattr(mgr, name)
            setattr(mgr, name, changed(held))
            try:
                written = live_state(system) != base
            finally:
                setattr(mgr, name, held)
            assert written == (name in self.PERSISTED), name

    def test_the_manager_section_is_what_the_journal_folds(self, tmp_path):
        """A checkpoint's manager section holds exactly the keys the journal
        fold writes: a key no record carries would come back as of the last
        checkpoint, while the live head had moved on."""
        store_dir = tmp_path / "store"
        system = build_system(checkpoint_dir=str(store_dir), checkpoint_period=1000.0)
        for _ in range(60):
            system.step()
        live = live_state(system)["manager"]
        assert set(live) == {"correction", "jobs"} == set(empty_state()["manager"])
        store = DurableStore(store_dir)
        payload, tail = store.load()
        store.close()
        base = payload["state"]
        base["manager"] = {"jobs": base["manager"]["jobs"]}
        assert apply_journal(base, tail.records)["manager"] == live

    def test_decision_counts_match_the_incidents_across_a_warm_restart(
        self, tmp_path, monkeypatch
    ):
        """Each decision is counted once, in the registry, which outlives
        every manager: after a warm restart each count still equals its
        incident stream."""
        monkeypatch.setattr(
            "repro.core.framework.ENDPOINT_RESTART_DELAY", DEAD_JOB_TIMEOUT + 20.0
        )
        faults = FaultSchedule([
            CorruptStatus(time=20.0, job_id="j01", kind="nan-power"),
            MeterOutage(time=30.0, duration=10.0),
            EndpointCrash(time=40.0, job_id="j02"),  # evicted at ~100 s
            HeadNodeCrash(time=120.0, down_for=10.0),
            CorruptStatus(time=160.0, job_id="j01", kind="nan-power"),
            MeterOutage(time=170.0, duration=5.0),
            EndpointCrash(time=175.0, job_id="j03"),
        ])
        system = build_system(
            checkpoint_dir=str(tmp_path / "store"), fault_schedule=faults,
            telemetry_enabled=True,
        )
        result = system.run(300.0)
        assert result.head_crashes == 1
        assert "restarted warm" in result.recovery_log[-1]
        counts, reg = system.telemetry.incident_counts, system.telemetry.registry
        for metric, category in (
            ("anor_jobs_evicted_total", "job-evicted"),
            ("anor_statuses_rejected_total", "status-rejected"),
            ("anor_meter_faults_total", "meter-fault"),
        ):
            assert counts[category] >= 2, category
            assert reg.get_value(metric) == counts[category], metric

    def test_every_journalled_evict_kind_is_in_the_fold_table(self):
        kinds = set()
        for path in sorted((Path(__file__).parent.parent / "src").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                evict = (
                    name == "_journal" and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == "job-evict"
                )
                if evict or name == "_requeue_or_drop":
                    kinds |= {
                        kw.value.value for kw in node.keywords
                        if kw.arg == "kind" and isinstance(kw.value, ast.Constant)
                    }
        assert kinds == set(JOB_EVICT)
