"""Durable cluster-tier state: crash-consistent checkpoint/journal + recovery.

The paper's cluster tier is one head-node process owning the job queue, the
budgeter's accounting, and every job's fitted T(P) model — a single point of
failure.  This package makes that state survive the process:

* :mod:`repro.durable.checkpoint` — versioned, checksummed snapshot files
  written in place (``pwrite`` + fsync; refuse anything untrustworthy).
* :mod:`repro.durable.journal` — a write-ahead JSON-lines journal of
  state-changing events between checkpoints, each record checksummed and
  sequence-numbered, reset in place by each checkpoint; replay tolerates a
  torn tail.
* :mod:`repro.durable.store` — :class:`DurableStore`, two alternating
  checkpoint slots and the journal, with the crash-consistency protocol
  between them, and the head's durable state: every record appended through
  the store is folded into it, and a checkpoint writes that fold.  No step
  frees a disk block.
* :mod:`repro.durable.state` — the checkpoint schema, in one place: how one
  journal record folds into the state (``JOB_EVICT`` is what each
  ``job-evict`` kind removes), how the state is restored, and a job record's
  entry and its inverse.  Restored records, with no link yet, put a
  restarted :class:`~repro.core.cluster_manager.ClusterPowerManager` in its
  bounded recovery mode (conservative reservations until each job
  re-HELLOs).
* :mod:`repro.durable.recovery` — the head-node lifecycle over a system:
  crash, supervised restart (load → fold → restore, or cold start with an
  incident), and reconciliation of the orphans a recovery window closes on.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "checkpoint": (
            "SCHEMA_VERSION", "CheckpointError", "read_checkpoint",
            "read_slot", "write_checkpoint",
        ),
        "journal": ("Journal", "JournalRecord", "JournalReplay"),
        "state": (
            "JOB_EVICT", "apply_journal", "empty_state", "fold_record",
            "restore_state",
        ),
        "store": ("DurableStore",),
    },
)
