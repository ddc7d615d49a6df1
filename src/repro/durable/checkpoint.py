"""Crash-consistent checkpoint files: written in place, versioned, checksummed.

A checkpoint is one JSON document written into a *slot* file in place: the
file is opened without truncating, the bytes go in at offset 0 with
``pwrite``, and the file is fsynced.  The parent directory is fsynced only
when the slot is first created, so that its entry survives a power cut.  No
call frees a disk block.  A write can tear, so the store keeps two slots and
alternates between them (:mod:`repro.durable.store`): the other slot still
holds the previous complete checkpoint.  The on-disk format is two lines::

    {"crc": <crc32 of payload line>, "generation": <n>, "length": <byte length>, "schema": 1}
    {...payload...}

The header is parsed first.  Exactly ``length`` bytes follow it, and then a
``\\n``; whatever lies past that newline is what a longer checkpoint left
behind and is never read.  ``length`` and the newline catch truncation and a
torn write, ``crc`` catches corruption, and ``generation`` orders the two
slots.  Loading anything unexpected raises :class:`CheckpointError` with a
reason a recovery path can log — callers fall back to an older slot or a
cold start, they never guess at partial state.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointError",
    "write_checkpoint",
    "read_checkpoint",
    "read_slot",
    "fsync_dir",
    "pwrite_all",
]

#: Version of the checkpoint payload layout.  Bump on any incompatible change
#: to what :mod:`repro.durable.state` captures; loaders refuse other versions
#: rather than misinterpret fields (forward-compatibility guard).
SCHEMA_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint file could not be trusted (version/corruption/truncation)."""


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so a just-created entry survives power loss.

    A new file's data is durable after its own fsync, but its name only once
    the parent directory's metadata reaches disk.  Platforms that cannot open
    directories (Windows) silently skip.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def pwrite_all(fd: int, data: bytes, offset: int) -> None:
    """Write all of ``data`` at ``offset``, whatever a short write leaves."""
    view = memoryview(data)
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


def write_checkpoint(
    path: str | Path,
    payload: dict,
    *,
    generation: int = 0,
    schema: int = SCHEMA_VERSION,
) -> None:
    """Durably persist ``payload`` (a JSON-serialisable dict) into ``path``,
    in place: the bytes a shorter write leaves behind are never read."""
    path = Path(path)
    body = _canonical(payload)
    header = _canonical(
        {"schema": int(schema), "crc": zlib.crc32(body), "length": len(body),
         "generation": int(generation)}
    )
    created = not path.exists()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        pwrite_all(fd, header + b"\n" + body + b"\n", 0)
        os.fsync(fd)
    finally:
        os.close(fd)
    if created:
        fsync_dir(path.parent)


def read_slot(path: str | Path, *, schema: int = SCHEMA_VERSION) -> tuple[int, dict]:
    """Load and verify a checkpoint: ``(generation, payload)``; raises
    :class:`CheckpointError` on doubt."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: unreadable ({exc})") from exc
    newline = raw.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"{path}: truncated (no header line)")
    try:
        header = json.loads(raw[:newline])
    except ValueError as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
    if not isinstance(header, dict) or not all(
        isinstance(header.get(key), int) and header[key] >= 0
        for key in ("schema", "crc", "length", "generation")
    ):
        raise CheckpointError(f"{path}: malformed header {header!r}")
    if header["schema"] != schema:
        raise CheckpointError(
            f"{path}: unknown schema version {header['schema']} "
            f"(this build reads version {schema})"
        )
    start = newline + 1
    end = start + header["length"]
    body = raw[start:end]
    if raw[end : end + 1] != b"\n":
        raise CheckpointError(
            f"{path}: truncated payload ({len(body)} of {header['length']} "
            f"bytes, then no line end)"
        )
    if zlib.crc32(body) != header["crc"]:
        raise CheckpointError(f"{path}: checksum mismatch")
    try:
        return int(header["generation"]), json.loads(body)
    except ValueError as exc:  # pragma: no cover - crc makes this unreachable
        raise CheckpointError(f"{path}: corrupt payload ({exc})") from exc


def read_checkpoint(path: str | Path, *, schema: int = SCHEMA_VERSION) -> dict:
    """Load and verify a checkpoint's payload; raises :class:`CheckpointError`
    on doubt."""
    return read_slot(path, schema=schema)[1]
