"""The durable store: one directory holding two checkpoint slots and a journal.

The store also keeps the head's durable state: :meth:`DurableStore.append`
journals each record and folds it into :attr:`DurableStore.state`, which is
what a checkpoint writes.

Crash-consistency protocol (see DESIGN.md §4d):

1. state-changing events append to ``journal.jsonl`` as they happen;
2. every checkpoint cadence, the journal is fsynced, then the full state is
   written in place into the slot that does not hold the newest checkpoint,
   with the next generation number and the last journal ``seq`` the snapshot
   covers, and fsynced; the journal is then reset in place at that watermark;
3. recovery takes the valid slot with the highest generation and replays
   only journal records past its watermark.

No step frees a disk block: both slots and the journal are written in place.
A crash while a slot is written tears only that slot, and the other one
still holds the previous complete checkpoint, whose records the journal
still holds too, since its reset waits for the new slot's fsync.  A slot is
used only if its watermark lies between the journal's base (what its last
reset dropped) and its last record: below the base, records it needs are
gone.  Otherwise :class:`CheckpointError` means *cold start*, never
guesswork.
"""

from __future__ import annotations

from pathlib import Path

from repro.durable.checkpoint import CheckpointError, read_slot, write_checkpoint
from repro.durable.journal import Journal, JournalReplay
from repro.durable.state import apply_journal, empty_state, fold_record

__all__ = ["DurableStore"]


class DurableStore:
    """Two alternating checkpoint slots + write-ahead journal under one
    directory."""

    SLOT_NAMES = ("checkpoint.0.json", "checkpoint.1.json")
    JOURNAL_NAME = "journal.jsonl"

    def __init__(self, directory: str | Path) -> None:
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.slot_paths = tuple(self.dir / name for name in self.SLOT_NAMES)
        self.journal = Journal(self.dir / self.JOURNAL_NAME)
        #: The journal's fold: empty on a fresh head, the newest checkpoint
        #: plus its tail after :meth:`recover`.
        self.state = empty_state()
        self.checkpoints_written = 0
        #: The slot holding the newest valid checkpoint (None: none does) and
        #: its generation; the next checkpoint goes into the other slot.
        self.newest_slot: Path | None = None
        self.generation = 0
        #: Why each slot that exists but is not valid was refused, at the
        #: last read (a restart that loads the other slot says why).
        slots, self.refused = self._read_slots()
        if slots:
            self.generation, self.newest_slot, _ = max(slots, key=lambda s: s[0])

    def _read_slots(self) -> tuple[list[tuple[int, Path, dict]], list[str]]:
        """``(generation, slot, payload)`` of each valid slot, and why each
        slot that exists but is not valid was refused."""
        slots, refused = [], []
        for path in self.slot_paths:
            if path.exists():
                try:
                    generation, payload = read_slot(path)
                except CheckpointError as exc:
                    refused.append(str(exc))
                else:
                    slots.append((generation, path, payload))
        return slots, refused

    def append(self, rtype: str, time: float, data: dict) -> int:
        """Journal one record and fold it into :attr:`state`; returns its
        sequence number."""
        seq = self.journal.append(rtype, time, data)
        fold_record(self.state, rtype, data)
        return seq

    def save_checkpoint(self, payload: dict) -> None:
        """Durably persist ``payload``, watermarked at the current journal seq.

        After the checkpoint lands, the journal records it covers are dead
        weight — reset the journal so it stays proportional to one
        checkpoint period, not the cluster's lifetime.
        """
        payload = dict(payload)
        payload["journal_seq"] = self.journal.seq
        self.journal.sync()
        slot = next(p for p in self.slot_paths if p != self.newest_slot)
        write_checkpoint(slot, payload, generation=self.generation + 1)
        self.generation += 1
        self.newest_slot = slot
        self.checkpoints_written += 1
        self.journal.reset()

    def load(self) -> tuple[dict | None, JournalReplay]:
        """Read back ``(checkpoint payload or None, journal tail past it)``.

        Raises :class:`CheckpointError` when the checkpoint recovery would
        need cannot be trusted — no slot is valid though one exists, or the
        newest valid one's watermark lies outside what the journal holds —
        and the caller must fall back to a cold start (the journal tail
        cannot be safely interpreted without knowing what the lost snapshot
        covered).
        """
        slots, self.refused = self._read_slots()
        if self.refused and not slots:
            raise CheckpointError("; ".join(self.refused))
        payload = max(slots, key=lambda s: s[0])[2] if slots else None
        watermark = int(payload.get("journal_seq", 0)) if payload is not None else 0
        journal = self.journal
        if not journal.base <= watermark <= journal.seq:
            raise CheckpointError(
                "; ".join(
                    self.refused
                    + [f"checkpoint covers journal seq {watermark}; the journal "
                       f"was reset at seq {journal.base} and ends at seq "
                       f"{journal.seq}"]
                )
            )
        return payload, journal.replay(min_seq=watermark)

    def recover(self) -> JournalReplay:
        """:meth:`load`, then fold the tail into the checkpoint's state (or
        the empty one) as :attr:`state`; returns the tail."""
        payload, replay = self.load()
        base = payload["state"] if payload is not None else empty_state()
        self.state = apply_journal(base, replay.records)
        return replay

    def close(self) -> None:
        self.journal.close()
