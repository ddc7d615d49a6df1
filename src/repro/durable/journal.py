"""Write-ahead journal of cluster-tier state changes between checkpoints.

The journal records every state-changing event — job admissions and
evictions, accepted online models, each round's cap decision (its caps, trim
and target hold) — and a checkpoint writes what they fold to every cadence
period, so recovery replays ``checkpoint + journal tail`` and loses at most
the events of the tick the head node died in.

On-disk format is JSON lines, each individually checksummed::

    {"crc": <crc32 of the rec field's canonical JSON>, "rec": {"seq": n, "t": ..., "type": ..., "data": {...}}}

``seq`` increases monotonically for the life of the store and never resets:
a checkpoint embeds the last journalled ``seq`` it covers, and replay skips
records at or below that watermark.

A checkpoint then *resets* the journal in place, freeing no disk block: it
writes ``{"base":<watermark>}`` as the first line and fsyncs, and only then
overwrites the records behind it with ``\n`` bytes, which replay skips as
empty lines.  Appends go on from just past that line.  The base line sits
in the file's first sector, so a crash leaves either the old first line,
with every covered record still whole, or the new one: either way a
reopened journal numbers on past the watermark.  A record below its base is
out of order, so a half-landed reset reads as a dropped tail, never as
records.

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

from repro.durable.checkpoint import _canonical, fsync_dir, pwrite_all

__all__ = ["JournalRecord", "JournalReplay", "Journal"]

#: Journal record vocabulary (see DESIGN.md §4d).
RECORD_TYPES = (
    "job-admit",      # queue intake, launch, requeue, or hello
    "job-evict",      # a job leaves a table: its kinds are state.JOB_EVICT
    "model-accept",   # manager validated an online model for a job
    "cap-decision",   # one round's caps (none unbudgeted) + correction + target hold
)


def _encode_line(rec: dict) -> bytes:
    """One on-disk line: ``rec`` serialised once, the crc wrapper spliced
    around it — byte for byte ``_canonical({"crc": ..., "rec": rec})``."""
    body = _canonical(rec)
    return b'{"crc":%d,"rec":%s}\n' % (zlib.crc32(body), body)


def _base_of(line: bytes) -> int | None:
    """The watermark a ``{"base":n}`` first line records, else None."""
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    if isinstance(obj, dict) and list(obj) == ["base"] and type(obj["base"]) is int:
        return obj["base"]
    return None


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
    """Append-only, checksummed, crash-tolerant event log, reset in place."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        replay, self.base, self._pos, self._tail = self._read(0)
        self.seq = replay.records[-1].seq if replay.records else self.base
        self._records = len(replay.records)  # trusted records since the reset
        self._fd: int | None = None

    def _open(self) -> int:
        """Open the file for writing (creating it durably), and clear a
        damaged tail past the trusted records: a record written over it
        could otherwise leave a stale, well-formed line behind it."""
        created = not self.path.exists()
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        if created:
            fsync_dir(self.path.parent)
        if self._tail > self._pos:
            pwrite_all(self._fd, b"\n" * (self._tail - self._pos), self._pos)
            self._tail = self._pos
        return self._fd

    def append(self, rtype: str, time: float, data: dict) -> int:
        """Append one record; returns its sequence number.

        The record is in the file when this returns, so it survives a crash
        of the process at once; it survives a power cut once the next
        checkpoint has fsynced the journal (:meth:`sync`).
        """
        if rtype not in RECORD_TYPES:
            raise ValueError(f"unknown journal record type {rtype!r}")
        self.seq += 1
        line = _encode_line(
            {"seq": self.seq, "t": float(time), "type": rtype, "data": data}
        )
        pwrite_all(self._fd if self._fd is not None else self._open(), line, self._pos)
        self._pos += len(line)
        self._records += 1
        return self.seq

    def sync(self) -> None:
        """fsync the journal's records (called before each checkpoint write),
        those an earlier process appended included."""
        if self._records:
            os.fsync(self._fd if self._fd is not None else self._open())

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def reset(self) -> int:
        """Drop every record, at the watermark ``seq`` (a checkpoint covers
        them all), in place.  Returns the number of trusted records dropped.

        The ``{"base":seq}`` line goes in at offset 0 and is fsynced before
        the records behind it become ``\n`` bytes; appends then go on from
        just past it.  Sequence numbers never reset.
        """
        dropped = self._records
        if not dropped and self._tail <= self._pos:
            return 0
        fd = self._fd if self._fd is not None else self._open()
        line = b'{"base":%d}\n' % self.seq
        pwrite_all(fd, line, 0)
        os.fsync(fd)
        if self._pos > len(line):
            pwrite_all(fd, b"\n" * (self._pos - len(line)), len(line))
        self.base, self._records = self.seq, 0
        self._pos = self._tail = len(line)
        return dropped

    def replay(self, *, min_seq: int = 0) -> JournalReplay:
        """Read back every trustworthy record with ``seq > min_seq``.

        Stops at the first unparseable, checksum-failing, unterminated or
        out-of-order line (a record at or below the base counts as out of
        order): everything after it is untrusted (records are written in
        order, so damage means a torn final write or external corruption).
        """
        return self._read(min_seq)[0]

    def _read(self, min_seq: int) -> tuple[JournalReplay, int, int, int]:
        """``(replay, base, pos, tail)``: the trusted records end at byte
        ``pos``, and every byte from ``tail`` on is a line end."""
        records: list[JournalRecord] = []
        if not self.path.exists():
            return JournalReplay(records=records, dropped_tail=0), 0, 0, 0
        raw = self.path.read_bytes()
        lines = raw.split(b"\n")
        base = _base_of(lines[0]) if len(lines) > 1 else None
        start = 0 if base is None else len(lines[0]) + 1
        last_seq = base = base or 0
        dropped, pos, offset = 0, start, start
        last = len(lines) - 1  # the text after the final line end, if any
        for i in range(1 if start else 0, len(lines)):
            line = lines[i]
            offset += len(line) + 1
            if not line:
                continue
            try:
                wrapper = json.loads(line)
                rec = wrapper["rec"]
                ok = (
                    i < last
                    and wrapper["crc"] == zlib.crc32(_canonical(rec))
                    and rec["type"] in RECORD_TYPES
                    and int(rec["seq"]) > last_seq
                )
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                dropped = sum(1 for rest in lines[i:] if rest)
                break
            last_seq, pos = int(rec["seq"]), offset
            if last_seq > min_seq:
                records.append(
                    JournalRecord(
                        seq=last_seq,
                        time=float(rec["t"]),
                        type=str(rec["type"]),
                        data=dict(rec["data"]),
                    )
                )
        tail = max(pos, len(raw.rstrip(b"\n")))
        return JournalReplay(records=records, dropped_tail=dropped), base, pos, tail
