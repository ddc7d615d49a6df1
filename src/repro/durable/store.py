"""The durable store: one directory holding a checkpoint and its journal.

Crash-consistency protocol (see DESIGN.md §4d):

1. state-changing events append to ``journal.jsonl`` as they happen;
2. every checkpoint cadence, the journal is fsynced, then the full state is
   written to ``checkpoint.json`` via write-temp + fsync + atomic rename,
   embedding the last journal ``seq`` the snapshot covers;
3. recovery loads the checkpoint (refusing unknown schema versions and
   failed checksums — :class:`CheckpointError` means *cold start*, never
   guesswork) and replays only journal records past the embedded watermark.

A crash at any instant therefore loses at most the events of the tick in
progress; a crash between the checkpoint rename and subsequent appends is
harmless because the watermark makes replay skip already-covered records.
"""

from __future__ import annotations

from pathlib import Path

from repro.durable.checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from repro.durable.journal import Journal, JournalReplay

__all__ = ["DurableStore"]


class DurableStore:
    """Checkpoint + write-ahead journal under one directory."""

    CHECKPOINT_NAME = "checkpoint.json"
    JOURNAL_NAME = "journal.jsonl"

    def __init__(self, directory: str | Path) -> None:
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.checkpoint_path = self.dir / self.CHECKPOINT_NAME
        self.journal = Journal(self.dir / self.JOURNAL_NAME)
        self.checkpoints_written = 0

    def save_checkpoint(self, payload: dict) -> None:
        """Durably persist ``payload``, watermarked at the current journal seq.

        After the checkpoint lands, the journal prefix it covers is dead
        weight — rotate it out so the journal stays proportional to one
        checkpoint period, not the cluster's lifetime.
        """
        payload = dict(payload)
        payload["journal_seq"] = self.journal.seq
        self.journal.sync()
        write_checkpoint(self.checkpoint_path, payload)
        self.checkpoints_written += 1
        self.journal.rotate(self.journal.seq)

    def load(self) -> tuple[dict | None, JournalReplay]:
        """Read back ``(checkpoint payload or None, journal tail past it)``.

        Raises :class:`CheckpointError` when a checkpoint exists but cannot
        be trusted — the caller must fall back to a cold start (the journal
        tail cannot be safely interpreted without knowing what the lost
        snapshot covered).
        """
        payload = None
        if self.checkpoint_path.exists():
            payload = read_checkpoint(self.checkpoint_path)
        min_seq = int(payload.get("journal_seq", 0)) if payload is not None else 0
        # A journal reopened after a checkpoint rotated it empty has lost its
        # place: numbering on from 0 would put every new record at or under
        # the watermark, where the next replay skips it.
        self.journal.seq = max(self.journal.seq, min_seq)
        return payload, self.journal.replay(min_seq=min_seq)

    def close(self) -> None:
        self.journal.close()
