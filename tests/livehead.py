"""The reference reader of a live head: what the store's journal fold must hold.

A head's durable state has one description in ``src/``, the journal fold the
store keeps (``DurableStore.state``).  :func:`live_state` reads the same keys
off the running system instead — every key but ``now`` and ``gates``, which a
checkpoint stamps — so a test can hold the fold to the head it describes:
:class:`FoldMonitor` does so at the end of every manager round.
"""

from __future__ import annotations

from repro.durable.state import job_entry

#: What a checkpoint stamps onto the fold, and no record folds.
STAMPS = ("now", "gates")


def live_state(system) -> dict:
    """The head's durable state, read off the live system."""
    mgr = system.manager
    return {
        "pending_index": len(system.schedule.requests) - len(system._pending),
        "queue": [dict(vars(req)) for req in system._queue],
        "running": {jid: dict(vars(req)) for jid, req in sorted(system._launched.items())},
        "attempts": dict(system._attempts),
        "requeued": list(system.requeued),
        "manager": {
            "correction": mgr._correction,
            # A linkless record (restored, no re-HELLO yet) is still a
            # liability the budgeter reserves power for; a second crash must
            # not forget it.
            "jobs": {job_id: job_entry(rec) for job_id, rec in mgr.jobs.items()},
        },
        "target_hold": mgr.target_hold.state_dict(),
    }


def unstamped(state: dict) -> dict:
    """``state`` (a fold, or a checkpoint's) without what a checkpoint stamps."""
    return {key: value for key, value in state.items() if key not in STAMPS}


def phases(system) -> dict:
    """The two gate phases a checkpoint stamps."""
    return {
        "manager": list(system._manager_gate.phase),
        "checkpoint": list(system._checkpoint_gate.phase),
    }


class FoldMonitor:
    """Round monitor: the store's fold equals :func:`live_state` at the end
    of every round.  Pass it in ``monitors`` and set :attr:`system` once the
    system is built; read :attr:`mismatches` (``(time, keys)``) after."""

    def __init__(self) -> None:
        self.system = None
        self.rounds = 0
        self.mismatches: list[tuple[float, list[str]]] = []

    def __call__(self, rnd) -> None:
        fold, live = unstamped(self.system.durable.state), live_state(self.system)
        if fold != live:
            fold, live = _flat(fold), _flat(live)
            keys = sorted(k for k in {*fold, *live} if fold.get(k) != live.get(k))
            self.mismatches.append((rnd.time, keys))
        self.rounds += 1


def _flat(state: dict) -> dict:
    """``state`` with the manager's keys as ``manager.<key>``."""
    out = dict(state)
    for key, value in out.pop("manager", {}).items():
        out[f"manager.{key}"] = value
    return out
