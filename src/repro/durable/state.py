"""The checkpoint schema: the journal fold, its restore, the empty baseline.

The head's durable state is a plain JSON dict covering exactly the state the
paper's head-node process owns (§4.1, §4.4): the scheduler queue and
running-set, per-job budget accounting (last sent caps, send counts), each
job's validated online model coefficients and classifier label (claimed
type), the trim and the target-feed hold-last-good state.  The journal is
its one description: :func:`fold_record` applies a record to it.
Compute-node-side state (running physics, endpoint modelers, node-local
watchdogs) is deliberately absent — it survives a head-node crash in the real
deployment and in the emulation alike.

A job's entry is one manager :class:`~repro.core.round.JobRecord`, written by
:func:`job_entry` and read back by :func:`job_record`.  :func:`restore_state`
puts a state back onto a system: each restored record, with no link yet,
drives conservative budgeting until its job re-HELLOs (reserve
``nodes × last_cap`` — the job may still be drawing it); once it reconnects,
the validated online model and budget accounting merge into the fresh record
so the cluster tier resumes warm instead of relearning every curve.

:func:`apply_journal` folds a journal tail into a checkpointed (or empty)
baseline, so recovery sees the cluster as of the last durable write, not the
last checkpoint cadence.  What a ``job-evict`` record removes is
:data:`JOB_EVICT`.
"""

from __future__ import annotations

import operator
from bisect import insort
from typing import TYPE_CHECKING, Iterable

from repro.core.round import JobRecord
from repro.durable.journal import JournalRecord
from repro.modeling.quadratic import QuadraticPowerModel
from repro.workloads.nas import P_NODE_MAX, P_NODE_MIN
from repro.workloads.trace import JobRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.framework import AnorSystem
    from repro.modeling.classifier import JobClassifier

__all__ = [
    "JOB_EVICT",
    "apply_journal",
    "empty_state",
    "fold_record",
    "job_entry",
    "job_record",
    "restore_state",
    "unheard_jobs",
]

#: The ``job-evict`` vocabulary: each kind, and the table its replay removes
#: the job from — the manager's record (``jobs``) or the head's running view
#: (``running``).  A kind of one side leaves the other side's entry alone:
#: that goes by a record of its own, or stays because the job does.
JOB_EVICT = {
    # Manager: the job's record goes; the job may still be running.
    "goodbye": "jobs",  # its endpoint said goodbye
    "timeout": "jobs",  # silent past the dead-job timeout
    "orphan": "jobs",  # silent past a restarted head's recovery window
    # Scheduler: the job left the cluster for good (a requeue is a
    # ``job-admit`` instead).
    "complete": "running",  # finished
    "killed": "running",  # its node crashed
    "shed": "running",  # the shed ladder killed it
    "lost": "running",  # died unseen during a head-node outage
}


def job_entry(record: JobRecord) -> dict:
    """A job's checkpoint entry: what the manager learned about it
    (:func:`job_record` is the inverse)."""
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


def job_record(job_id: str, entry: dict, classifier: "JobClassifier") -> JobRecord:
    """:func:`job_entry`'s inverse: the record of a job the head knows but
    has no link to, believed as ``classifier`` believes its claimed type."""
    claimed, believed_p_max = str(entry["claimed_type"]), float(entry["believed_p_max"])
    online, r2, last_cap = entry["online"], entry["online_r2"], entry["last_cap"]
    return JobRecord(
        job_id,
        claimed,
        int(entry["nodes"]),
        link=None,
        believed_model=classifier.model_for(claimed, job_name=job_id),
        believed_p_max=believed_p_max,
        online_model=None if online is None else QuadraticPowerModel(
            *(float(v) for v in online), p_min=P_NODE_MIN, p_max=believed_p_max
        ),
        online_r2=None if r2 is None else float(r2),
        last_cap=None if last_cap is None else float(last_cap),
        caps_sent=int(entry["caps_sent"]),
    )


def unheard_jobs(system: "AnorSystem", heard: dict) -> dict[str, JobRecord]:
    """Records for the jobs the head launched but holds no record of in
    ``heard``: their HELLO was still in flight at the crash, or their record
    had been evicted.  Nothing was learned about them, so each is reserved at
    its believed ceiling, and, like any restored job, orphaned when the
    reconnect window closes on its silence — a job that died in the outage
    before it ever spoke is requeued instead of lost."""
    out = {}
    for job_id, req in system._launched.items():
        if job_id not in heard:
            believed = system.classifier.model_for(req.claimed_type, job_name=job_id)
            out[job_id] = JobRecord(
                job_id, req.claimed_type, req.nodes, link=None, believed_model=believed,
                believed_p_max=min(believed.p_max, P_NODE_MAX),
            )
    return out


def restore_state(system: "AnorSystem", state: dict, now: float) -> None:
    """Put ``state`` back onto a system whose manager was just rebuilt: the
    scheduler side and gate phases come back as they were, the manager's trim
    and target hold too, and its per-job records join its job table,
    linkless, in recovery mode until each job re-HELLOs.  A key this does
    not read (a ``counters`` object an older head wrote) is ignored."""
    ordered = sorted(system.schedule.requests, key=lambda r: (r.submit_time, r.job_id))
    system._pending = ordered[int(state["pending_index"]):]
    # The launched jobs come back as submitted.
    system._launched = {
        job_id: JobRequest(**spec) for job_id, spec in state["running"].items()
    }
    system._attempts = {jid: int(n) for jid, n in state["attempts"].items()}
    system.requeued = list(state["requeued"])
    system._queue = []
    for spec in state["queue"]:
        system._enqueue(JobRequest(**spec))
    mgr, saved = system.manager, state["manager"]
    mgr._correction = float(saved["correction"])
    mgr.target_hold.restore_state(state["target_hold"])
    recovered = {
        job_id: job_record(job_id, entry, system.classifier)
        for job_id, entry in saved["jobs"].items()
    }
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
        "manager": {"correction": 0.0, "jobs": {}},
        "target_hold": {"last_good": None, "last_good_time": 0.0, "degraded_reads": 0},
        "gates": {"manager": [None, 0], "checkpoint": [None, 0]},
    }


def apply_journal(state: dict, records: Iterable[JournalRecord]) -> dict:
    """Fold journalled state changes into ``state`` (mutates and returns it)."""
    for rec in records:
        fold_record(state, rec.type, rec.data)
    return state


def fold_record(state: dict, rtype: str, d: dict) -> None:
    """Fold one journalled state change (``d`` is its data, copied where
    kept) into ``state``.  Idempotent with respect to re-delivered evictions
    and tolerant of records about jobs ``state`` no longer tracks — exactly
    the overlaps a checkpoint-then-crash interleaving can produce.  The
    record's time is not state: a checkpoint stamps ``now``."""
    manager = state["manager"]
    jobs = manager["jobs"]
    if rtype == "cap-decision":
        for job_id, cap in d.get("caps", {}).items():
            entry = jobs.get(job_id)
            if entry is not None:
                entry["last_cap"] = float(cap)
                entry["caps_sent"] = int(entry.get("caps_sent", 0)) + 1
        manager["correction"] = float(d.get("correction", 0.0))
        if "hold" in d:
            state["target_hold"] = dict(d["hold"])
    elif rtype == "job-admit":
        kind, queue, running = d.get("kind"), state["queue"], state["running"]
        if kind in ("queue", "manual", "requeue"):
            insort(queue, dict(d["spec"]), key=operator.itemgetter("submit_time"))
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
            job_id = d["job_id"]
            identity = {
                "claimed_type": d["claimed_type"],
                "nodes": int(d["nodes"]),
                "believed_p_max": float(d["believed_p_max"]),
            }
            # A new job's record has learned nothing yet; a reconnect
            # refreshes the identity and keeps what was learned.
            fresh = JobRecord(job_id, link=None, believed_model=None, **identity)
            jobs.setdefault(job_id, job_entry(fresh)).update(identity)
    elif rtype == "job-evict":
        table = jobs if JOB_EVICT[d["kind"]] == "jobs" else state["running"]
        table.pop(d["job_id"], None)
    elif rtype == "model-accept":
        entry = jobs.get(d["job_id"])
        if entry is not None:
            entry["online"] = [float(d["a"]), float(d["b"]), float(d["c"])]
            entry["online_r2"] = d.get("r2")
