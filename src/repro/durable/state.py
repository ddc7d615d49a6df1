"""The checkpoint schema: capture, restore, journal replay, empty baseline.

The checkpoint payload is a plain JSON dict covering exactly the state the
paper's head-node process owns (§4.1, §4.4): the scheduler queue and
running-set, per-job budget accounting (last sent caps, send counts), each
job's validated online model coefficients and classifier label (claimed
type), the target-feed hold-last-good state, and the manager/checkpoint
:class:`~repro.util.clock.PeriodicGate` phases.  Compute-node-side state
(running physics, endpoint modelers, node-local watchdogs) is deliberately
absent — it survives a head-node crash in the real deployment and in the
emulation alike.

:func:`restore_state` is :func:`capture_state`'s inverse, and
:class:`RecoveredJob` what a per-job entry comes back as: everything the
manager knew about a connected job that is worth carrying across a head-node
restart.  Until the job re-HELLOs over a fresh link, its ``RecoveredJob``
drives conservative budgeting (reserve ``nodes × last_cap`` — the job may
still be drawing it); once it reconnects, the validated online model and
budget accounting merge into the fresh :class:`JobRecord` so the cluster
tier resumes warm instead of relearning every curve.

:func:`apply_journal` folds a journal tail into a checkpointed (or empty)
baseline, so recovery sees the cluster as of the last durable write, not the
last checkpoint cadence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.durable.journal import JournalRecord
from repro.modeling.quadratic import QuadraticPowerModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.framework import AnorSystem

__all__ = [
    "RecoveredJob",
    "apply_journal",
    "capture_state",
    "empty_state",
    "recovered_jobs_from_state",
    "restore_state",
    "unheard_jobs",
]

#: Manager incident counters a checkpoint carries, by attribute name.
_COUNTERS = ("evictions", "rejected_statuses", "rejected_models", "meter_faults")


@dataclass
class RecoveredJob:
    """Per-job cluster-tier state restored from the durable store."""

    job_id: str
    claimed_type: str
    nodes: int
    believed_p_max: float
    online_model: QuadraticPowerModel | None = None
    online_r2: float | None = None
    last_cap: float | None = None
    caps_sent: int = 0


def _job_entry(record) -> dict:
    """JSON form of one manager :class:`JobRecord`, or of the
    :class:`RecoveredJob` that stands in for one until it re-HELLOs
    (:func:`recovered_jobs_from_state` is the inverse)."""
    model = record.online_model
    return {
        "claimed_type": record.claimed_type,
        "nodes": record.nodes,
        "believed_p_max": record.believed_p_max,
        "online": None if model is None else [model.a, model.b, model.c],
        "online_r2": record.online_r2,
        "last_cap": record.last_cap,
        "caps_sent": record.caps_sent,
    }


def capture_state(system: "AnorSystem", now: float) -> dict:
    """Snapshot everything the head node must not lose."""
    mgr = system.manager
    jobs_state = {
        job_id: _job_entry(rec) for job_id, rec in sorted(mgr.jobs.items())
    }
    # Jobs restored from a previous crash that have not re-HELLOed yet are
    # still liabilities the budgeter reserves power for; a second crash must
    # not forget them.
    for job_id, rec in mgr.recovered_items():
        jobs_state.setdefault(job_id, _job_entry(rec))
    return {
        "now": float(now),
        "pending_index": len(system.schedule.requests) - len(system._pending),
        "queue": [system._spec_dict(q) for q in system._queue],
        "running": {
            jid: system._spec_dict(q) for jid, q in sorted(system._launched.items())
        },
        "attempts": dict(system._attempts),
        "requeued": list(system.requeued),
        "manager": {
            "correction": mgr._correction,
            "jobs": jobs_state,
            "counters": {name: getattr(mgr, name) for name in _COUNTERS},
        },
        "target_hold": mgr.target_source.state_dict(),
        "gates": {
            "manager": list(system._manager_gate.phase),
            "checkpoint": list(system._checkpoint_gate.phase),
        },
    }


def recovered_jobs_from_state(
    jobs_state: dict, *, p_node_min: float
) -> dict[str, RecoveredJob]:
    """Rebuild :class:`RecoveredJob` records from a checkpointed manager state."""
    out: dict[str, RecoveredJob] = {}
    for job_id, entry in jobs_state.items():
        believed_p_max = float(entry["believed_p_max"])
        online = entry.get("online")
        model = None
        if online is not None:
            a, b, c = (float(v) for v in online)
            model = QuadraticPowerModel(
                a=a, b=b, c=c, p_min=float(p_node_min), p_max=believed_p_max
            )
        r2 = entry.get("online_r2")
        last_cap = entry.get("last_cap")
        out[job_id] = RecoveredJob(
            job_id=job_id,
            claimed_type=str(entry["claimed_type"]),
            nodes=int(entry["nodes"]),
            believed_p_max=believed_p_max,
            online_model=model,
            online_r2=None if r2 is None else float(r2),
            last_cap=None if last_cap is None else float(last_cap),
            caps_sent=int(entry.get("caps_sent", 0)),
        )
    return out


def unheard_jobs(system: "AnorSystem", heard: dict) -> dict[str, RecoveredJob]:
    """Recovery entries for the jobs the head launched but holds no record
    of in ``heard``: their HELLO was still in flight at the crash, or their
    record had been evicted.  Nothing was learned about them,
    so each is reserved at its believed ceiling, and, like any restored job,
    orphaned when the reconnect window closes on its silence — a job that
    died in the outage before it ever spoke is requeued instead of lost."""
    mgr, out = system.manager, {}
    for job_id, q in system._launched.items():
        if job_id not in heard:
            claimed = q.claimed_type or q.request.type_name
            believed = system.classifier.model_for(claimed, job_name=job_id)
            out[job_id] = RecoveredJob(
                job_id, claimed, q.job_type.nodes, min(believed.p_max, mgr.p_node_max)
            )
    return out


def restore_state(system: "AnorSystem", state: dict, now: float) -> None:
    """:func:`capture_state`'s inverse, onto a system whose manager was just
    rebuilt: the scheduler side and gate phases come back as they were, the
    manager's trim, counters and target hold too, and its per-job records
    enter recovery mode until each job re-HELLOs."""
    ordered = sorted(system.schedule.requests, key=lambda r: (r.submit_time, r.job_id))
    system._pending = ordered[int(state["pending_index"]):]
    # The launched jobs come back as submitted.
    system._launched = {
        job_id: system._spec_from_dict(spec) for job_id, spec in state["running"].items()
    }
    system._attempts = {jid: int(n) for jid, n in state["attempts"].items()}
    system.requeued = list(state["requeued"])
    system._queue = []
    for spec in state["queue"]:
        system._enqueue(system._spec_from_dict(spec))
    mgr, saved = system.manager, state["manager"]
    mgr._correction = float(saved["correction"])
    for name in _COUNTERS:
        setattr(mgr, name, int(saved["counters"][name]))
    mgr.target_source.restore_state(state["target_hold"])
    recovered = recovered_jobs_from_state(saved["jobs"], p_node_min=mgr.p_node_min)
    recovered.update(unheard_jobs(system, recovered))
    mgr.begin_recovery(now, recovered)
    system._manager_gate.restore(*state["gates"]["manager"])
    system._checkpoint_gate.restore(*state["gates"]["checkpoint"])


def empty_state() -> dict:
    """The baseline before any event: a just-booted head node with no history.

    Journal replay onto this baseline reconstructs a run that crashed before
    its first checkpoint cadence fired.
    """
    return {
        "now": 0.0,
        "pending_index": 0,
        "queue": [],
        "running": {},
        "attempts": {},
        "requeued": [],
        "manager": {
            "correction": 0.0,
            "jobs": {},
            "counters": dict.fromkeys(_COUNTERS, 0),
        },
        "target_hold": {"last_good": None, "last_good_time": 0.0, "degraded_reads": 0},
        "gates": {"manager": [None, 0], "checkpoint": [None, 0]},
    }


def apply_journal(state: dict, records: Iterable[JournalRecord]) -> dict:
    """Fold journalled state changes into ``state`` (mutates and returns it).

    Application is idempotent with respect to re-delivered evictions and
    tolerant of records about jobs the baseline no longer tracks — exactly
    the overlaps a checkpoint-then-crash interleaving can produce.
    """
    jobs = state["manager"]["jobs"]
    queue: list[dict] = state["queue"]
    running: dict[str, dict] = state["running"]
    for rec in records:
        d = rec.data
        state["now"] = max(state["now"], rec.time)
        if rec.type == "job-admit":
            kind = d.get("kind")
            if kind in ("queue", "manual", "requeue"):
                queue.append(dict(d["spec"]))
                if kind == "queue":
                    state["pending_index"] += 1
                elif kind == "requeue":
                    # The job was running when its node died; it is queued
                    # again, not running.
                    job_id = d["spec"]["job_id"]
                    running.pop(job_id, None)
                    state["attempts"][job_id] = int(d.get("attempt", 1))
                    state["requeued"].append(job_id)
            elif kind == "launch":
                job_id = d["spec"]["job_id"]
                queue[:] = [s for s in queue if s["job_id"] != job_id]
                running[job_id] = dict(d["spec"])
                state["attempts"].setdefault(job_id, int(d.get("attempt", 1)))
            elif kind == "hello":
                entry = jobs.get(d["job_id"])
                if entry is None:
                    jobs[d["job_id"]] = {
                        "claimed_type": d["claimed_type"],
                        "nodes": int(d["nodes"]),
                        "believed_p_max": float(d["believed_p_max"]),
                        "online": None,
                        "online_r2": None,
                        "last_cap": None,
                        "caps_sent": 0,
                    }
                else:
                    # Reconnect: identity fields refresh, learned state stays.
                    entry["claimed_type"] = d["claimed_type"]
                    entry["nodes"] = int(d["nodes"])
                    entry["believed_p_max"] = float(d["believed_p_max"])
        elif rec.type == "job-evict":
            kind = d.get("kind")
            # goodbye/timeout come from the manager and clear its record;
            # complete/killed come from the scheduler side and clear the
            # running-view (the manager's record goes separately, via a
            # goodbye or a later heartbeat timeout); orphan clears both.
            if kind in ("goodbye", "timeout", "orphan"):
                jobs.pop(d["job_id"], None)
            if kind in ("complete", "killed", "orphan"):
                running.pop(d["job_id"], None)
        elif rec.type == "model-accept":
            entry = jobs.get(d["job_id"])
            if entry is not None:
                entry["online"] = [float(d["a"]), float(d["b"]), float(d["c"])]
                entry["online_r2"] = d.get("r2")
        elif rec.type == "cap-decision":
            for job_id, cap in d.get("caps", {}).items():
                entry = jobs.get(job_id)
                if entry is not None:
                    entry["last_cap"] = float(cap)
                    entry["caps_sent"] = int(entry.get("caps_sent", 0)) + 1
            state["manager"]["correction"] = float(d.get("correction", 0.0))
            if "hold" in d:
                state["target_hold"] = dict(d["hold"])
        elif rec.type == "target-change":
            if "hold" in d:
                state["target_hold"] = dict(d["hold"])
    return state
