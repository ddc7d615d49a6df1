"""Head-node lifecycle: crash, supervised restart, orphan reconciliation.

The functions take the :class:`~repro.core.framework.AnorSystem` they act on;
``AnorSystem.crash_head_node`` / ``restart_head_node`` are the public entry
points and decide *whether* (the head is up, or down), these do it.  A
restart restores the store's journal fold (:mod:`repro.durable.state`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.durable.checkpoint import CheckpointError
from repro.durable.state import empty_state, job_entry, restore_state, unheard_jobs
from repro.durable.store import DurableStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cluster_manager import ClusterPowerManager
    from repro.core.framework import AnorSystem

__all__ = ["crash_head", "reconcile_orphan", "restart_head"]


def crash_head(system: "AnorSystem", now: float) -> None:
    """The cluster-tier process dies; what the compute nodes hold survives."""
    system.head_crashes += 1
    for owner, held in _engaged(system.manager):
        system._report(
            "head-state-reset", now, system.recovery_log,
            f"head-local {owner} state dropped ({held})", owner=owner,
        )
    # Every connection to the dead head is gone: close them so that
    # endpoints shouting into the void show up as counted drops, not
    # silently vanished mail.  (The loss RNG draw precedes the closed
    # check in LatencyChannel.send, so seeded runs are unchanged.)
    for link in system.manager._links:
        link.close("head-crash")
    system.manager = None
    if system.durable is not None:
        system.durable.close()
        system.durable = None
    system._build_tick()
    system._report("head-crash", now, system.recovery_log, "head node crashed")


def _engaged(mgr: "ClusterPowerManager") -> Iterator[tuple[str, str]]:
    """``(owner, what it held)`` for each round-stage owner whose state is
    engaged: no checkpoint carries it, so a restarted head starts it over."""
    shed, auditor, breaker, planner = mgr.shed, mgr.auditor, mgr.breaker, mgr.planner
    if shed is not None and (shed.active or shed.ladder.ramping):
        yield "shed", f"ladder {shed.severity}, ceiling {shed.ladder.ceiling:.0f}W"
    held = [] if auditor is None else [
        job_id for job_id in sorted(mgr.jobs) if auditor.state(job_id) != "trusted"
    ]
    if held:
        yield "audit", f"{len(held)} job(s) not trusted: {', '.join(held)}"
    if breaker is not None and breaker.state != "closed":
        yield "breaker", f"breaker {breaker.state}"
    if planner is not None and planner.state == "fallback":
        yield "planner", "envelope in fallback"


def _load_state(system: "AnorSystem", now: float) -> dict | None:
    """The reopened store's fold: its checkpoint (or the empty baseline) with
    the journal tail folded in; None — a cold start — without a store or when
    the checkpoint cannot be trusted."""
    if system.config.checkpoint_dir is None:
        return None
    store = system.durable = DurableStore(system.config.checkpoint_dir)
    try:
        replay = store.recover()
    except CheckpointError as exc:
        system._report(
            "checkpoint-rejected",
            now,
            system.recovery_log,
            f"checkpoint rejected ({exc}); cold start",
            error=str(exc),
        )
        system.warnings.append(system.recovery_log[-1])
        return None
    for reason in store.refused:
        system._report(
            "checkpoint-slot-refused", now, system.recovery_log,
            f"checkpoint slot refused ({reason}); the other slot loaded", reason=reason,
        )
    if replay.dropped_tail:
        system._report(
            "journal-tail-dropped",
            now,
            system.recovery_log,
            f"journal tail dropped "
            f"({replay.dropped_tail} corrupt/truncated record(s))",
            records=replay.dropped_tail,
        )
    return store.state


def restart_head(system: "AnorSystem", now: float) -> None:
    """Bring the head back: load, rebuild the manager, restore or cold-start,
    seed the store's fold with what the head holds, reconnect every surviving
    endpoint."""
    state = _load_state(system, now)
    system.manager = mgr = system._build_manager()
    store = system.durable
    if state is not None:
        restore_state(system, state, now)
        recovered = len(mgr.jobs)  # each one linkless
        system._report(
            "head-restart",
            now,
            system.recovery_log,
            f"head node restarted warm "
            f"({recovered} job(s) recovered from checkpoint+journal)",
            incident=False,
            mode="warm",
            recovered_jobs=recovered,
        )
    else:
        # Cold start: the in-memory queue and launched jobs stand in for the
        # schedule and resource-manager state the head re-reads from
        # files (§4.1); everything *learned* — models, correction,
        # budget accounting — is gone.  The manager still runs a
        # recovery window, over every job the head launched, so that one
        # which died in the outage is found missing, and the gate, reset
        # in place, re-anchors the control grid at the restart instant.
        system._manager_gate.restore(None, 0)
        mgr.begin_recovery(now, unheard_jobs(system, {}))
        if store is not None:
            # Over a refused store, the fold starts from the stand-ins: the
            # next checkpoint must not forget them.
            store.state = {
                **empty_state(),
                "pending_index": len(system.schedule.requests) - len(system._pending),
                "queue": [dict(vars(req)) for req in system._queue],
                "running": {jid: dict(vars(req)) for jid, req in system._launched.items()},
                "attempts": dict(system._attempts),
                "requeued": list(system.requeued),
            }
        system._report(
            "head-restart-cold",
            now,
            system.recovery_log,
            "head node restarted cold (no usable checkpoint)",
        )
    if store is not None:  # the unheard jobs' records: no journal record wrote them
        jobs = store.state["manager"]["jobs"]
        jobs.update((j, job_entry(r)) for j, r in mgr.jobs.items() if j not in jobs)
    # Every surviving endpoint reconnects over a fresh link and re-HELLOs
    # on its next control period (deterministic order).
    for job_id in sorted(system.endpoints):
        system.endpoints[job_id].reconnect(system._dial())
    system._build_tick()


def reconcile_orphan(system: "AnorSystem", job_id: str, now: float) -> None:
    """Reconcile a job the recovery window closed on without a re-HELLO.

    The manager's ``orphan`` record cleared only its own entry; what became
    of the job is journalled here.  Three deterministic cases: the job is
    still running (endpoint died in the outage — it stays launched, left to
    the watchdog, and nothing is journalled), it completed during the outage
    (``complete``), or it died with its node (requeued from the checkpointed
    spec like any node-crash kill, else dropped as ``lost``) — unless the
    head has already requeued or dropped it since the restart.
    """
    system.orphaned.append(job_id)
    if job_id in system.cluster.running:
        system._report(
            "orphan-running",
            now,
            system.recovery_log,
            f"job {job_id} silent past the recovery window "
            f"but still running; awaiting endpoint watchdog",
            incident=False,
            job_id=job_id,
        )
        if job_id not in system.endpoints and all(
            r[1] != job_id for r in system._endpoint_restarts
        ):
            system._endpoint_restarts.append((now, job_id))
        return
    spec = system._launched.pop(job_id, None)
    if any(t.job_id == job_id for t in system.cluster.completed):
        system._report(
            "orphan-completed",
            now,
            system.recovery_log,
            f"job {job_id} completed during the head-node outage",
            incident=False,
            job_id=job_id,
        )
        if spec is not None:
            system._journal("job-evict", now, kind="complete", job_id=job_id)
        return
    if spec is None:
        # The head settled this job itself inside the recovery window (its
        # node crashed, or the ladder shed it, before it re-HELLOed):
        # requeueing it again would admit it twice.
        return
    system._requeue_or_drop(
        job_id,
        now,
        spec,
        system.recovery_log,
        f"job {job_id} died during the head-node outage; requeued",
        f"job {job_id} died during the head-node outage (not requeued)",
        kind="lost",
    )
