"""Write-ahead journal of cluster-tier state changes between checkpoints.

The checkpoint captures a consistent snapshot every cadence period; the
journal records every state-changing event in between — job admissions and
evictions, accepted online models, each round's cap decision, target-feed
changes — so recovery replays ``checkpoint + journal tail`` and loses at most
the events of the tick the head node died in.

On-disk format is JSON lines, each individually checksummed::

    {"crc": <crc32 of the rec field's canonical JSON>, "rec": {"seq": n, "t": ..., "type": ..., "data": {...}}}

``seq`` increases monotonically for the life of the store and never resets:
a checkpoint embeds the last journalled ``seq`` it covers, and replay skips
records at or below that watermark.  That makes the checkpoint/journal pair
crash-consistent without needing atomicity across two files — a crash after
the checkpoint rename but before any further appends simply leaves a fully
covered journal prefix.

Replay is tolerant of exactly the damage a crash can cause: a truncated or
corrupt record ends the replay there (the tail is untrusted), reported via
``dropped_tail`` so the recovery path can record the incident.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.durable.checkpoint import fsync_dir

__all__ = ["JournalRecord", "JournalReplay", "Journal"]

#: Journal record vocabulary (see DESIGN.md §4d).
RECORD_TYPES = (
    "job-admit",      # queue intake, launch, requeue, or hello
    "job-evict",      # a job leaves a table: its kinds are state.JOB_EVICT
    "model-accept",   # manager validated an online model for a job
    "cap-decision",   # one budgeting round's caps + correction + target
    "target-change",  # observed cluster power target changed value
)


def _canonical(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _encode_line(rec: dict) -> bytes:
    """One on-disk line: ``rec`` serialised once, the crc wrapper spliced
    around it — byte for byte ``_canonical({"crc": ..., "rec": rec})``."""
    body = _canonical(rec)
    return b'{"crc":%d,"rec":%s}\n' % (zlib.crc32(body), body)


@dataclass(frozen=True)
class JournalRecord:
    """One journalled state change."""

    seq: int
    time: float
    type: str
    data: dict


@dataclass
class JournalReplay:
    """Result of reading a journal back."""

    records: list[JournalRecord]
    dropped_tail: int  # lines discarded at the first corrupt/truncated record


class Journal:
    """Append-only, checksummed, crash-tolerant event log."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        replay = self.replay(min_seq=0)
        self.seq = replay.records[-1].seq if replay.records else 0
        # What the file holds: trusted records, then maybe a damaged tail.
        self._on_disk, self._torn = len(replay.records), replay.dropped_tail > 0
        self._fh = None

    def append(self, rtype: str, time: float, data: dict) -> int:
        """Durably append one record; returns its sequence number."""
        if rtype not in RECORD_TYPES:
            raise ValueError(f"unknown journal record type {rtype!r}")
        self.seq += 1
        line = _encode_line(
            {"seq": self.seq, "t": float(time), "type": rtype, "data": data}
        )
        if self._fh is None:
            self._fh = open(self.path, "ab")
        self._fh.write(line)
        self._fh.flush()
        self._on_disk += 1
        return self.seq

    def sync(self) -> None:
        """fsync the journal (called alongside checkpoint writes)."""
        if self._fh is not None:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def rotate(self, min_seq: int) -> int:
        """Atomically drop records a checkpoint already covers (seq ≤ min_seq).

        Rewrites the journal with only the surviving tail using the same
        crash-safe discipline as the checkpoint itself: write-temp + fsync +
        atomic rename + parent-directory fsync.  A crash before the rename
        leaves the old journal (its covered prefix is harmless — replay skips
        it via the watermark); a crash after leaves the compacted one.
        Sequence numbers never reset.  Returns the number of records dropped.
        A rotation covering every record (the one each checkpoint asks for)
        writes the empty replacement without reading the old file.
        """
        survivors: list[JournalRecord] = []
        if min_seq < self.seq:
            full = self.replay(min_seq=0)
            survivors = [r for r in full.records if r.seq > min_seq]
            self._on_disk, self._torn = len(full.records), full.dropped_tail > 0
        dropped = self._on_disk - len(survivors)
        if dropped == 0 and not self._torn:
            return 0
        self.close()
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as fh:
            for rec in survivors:
                body = {"seq": rec.seq, "t": rec.time, "type": rec.type,
                        "data": rec.data}
                fh.write(_encode_line(body))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        fsync_dir(self.path.parent)
        self._on_disk, self._torn = len(survivors), False
        return dropped

    def replay(self, *, min_seq: int = 0) -> JournalReplay:
        """Read back every trustworthy record with ``seq > min_seq``.

        Stops at the first unparseable, checksum-failing, or out-of-order
        line: everything after it is untrusted (the file is append-only, so
        damage means a torn final write or external corruption).
        """
        records: list[JournalRecord] = []
        dropped = 0
        if not self.path.exists():
            return JournalReplay(records=records, dropped_tail=0)
        with open(self.path, "rb") as fh:
            lines = fh.read().split(b"\n")
        last_seq = 0
        for i, line in enumerate(lines):
            if not line:
                continue
            try:
                wrapper = json.loads(line)
                rec = wrapper["rec"]
                ok = (
                    wrapper["crc"] == zlib.crc32(_canonical(rec))
                    and rec["type"] in RECORD_TYPES
                    and int(rec["seq"]) > last_seq
                )
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                dropped = sum(1 for rest in lines[i:] if rest)
                break
            last_seq = int(rec["seq"])
            if last_seq > min_seq:
                records.append(
                    JournalRecord(
                        seq=last_seq,
                        time=float(rec["t"]),
                        type=str(rec["type"]),
                        data=dict(rec["data"]),
                    )
                )
        return JournalReplay(records=records, dropped_tail=dropped)
