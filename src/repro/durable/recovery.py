"""Recovered cluster-tier job state, parsed out of a checkpoint/journal.

:class:`RecoveredJob` is the bridge between the persistence layer (plain
JSON dicts) and the live :class:`~repro.core.cluster_manager.ClusterPowerManager`:
everything the manager knew about a connected job that is worth carrying
across a head-node restart.  Until the job re-HELLOs over a fresh link, its
``RecoveredJob`` drives conservative budgeting (reserve ``nodes × last_cap``
— the job may still be drawing it); once it reconnects, the validated online
model and budget accounting merge into the fresh :class:`JobRecord` so the
cluster tier resumes warm instead of relearning every curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.modeling.quadratic import QuadraticPowerModel

__all__ = ["RecoveredJob", "recovered_jobs_from_state"]


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
