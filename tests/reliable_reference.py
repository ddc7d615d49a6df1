"""``ReliableLink`` as it was before its receive did work only for what is
due: the test oracle.

Each receive here walks every outstanding envelope for a due retransmit,
scans them all for the partition threshold, and picks the raw link's verb
by side for every frame.  ``repro.core.reliable.ReliableLink`` skips the
walk before the earliest retry instant and the scan on a pump that sent
nothing; ``tests/test_partition_safety.py`` drives both through the same
loss, latency changes, partitions and window wraps and holds every frame,
RNG draw and count equal.  Frames are the real ``Envelope`` and ``Ack``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.reliable import (
    BASE_BACKOFF, JITTER, MAX_BACKOFF, PARTITION_ATTEMPTS, WINDOW, Ack, Envelope,
)
from repro.core.transport import TcpLink
from repro.faults.events import PartitionEnd, PartitionStart
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.util.rng import ensure_rng


class _Outstanding:
    """Sender-side bookkeeping for one unacked envelope."""

    __slots__ = ("envelope", "first_sent", "attempts", "next_retry")

    def __init__(self, envelope: Envelope, now: float, first_backoff: float) -> None:
        self.envelope = envelope
        self.first_sent = now
        self.attempts = 0  # retransmits so far (the original send is free)
        self.next_retry = now + first_backoff


class ReferenceLink:
    """One side of a reliable connection, as ``ReliableLink`` was written
    before its pump kept a retransmit deadline."""

    def __init__(
        self,
        link: TcpLink,
        side: str,
        *,
        seed: int | np.random.Generator | None = None,
        name: str = "",
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        if side not in ("cluster", "job"):
            raise ValueError(f"side must be 'cluster' or 'job', got {side!r}")
        self.link = link
        self.side = side
        self.name = name or side
        self._rng = ensure_rng(seed)
        # Sender state (this side's outbound direction).
        self._next_seq = 0
        self._outstanding: dict[int, _Outstanding] = {}
        # Receiver state (this side's inbound direction): cumulative floor
        # plus the sparse set of delivered seqs above it — bounded memory.
        self._cum_floor = -1
        self._seen: set[int] = set()
        # Declared-partition state and the fault records it produces.
        self.partitioned_since: float | None = None
        self.faults: list[PartitionStart | PartitionEnd] = []
        # Counters (folded into telemetry by the owner; plain ints here so
        # the layer works without a registry).
        self.retransmits = 0
        self.superseded = 0
        self.duplicates = 0
        self.acked = 0
        self.telemetry = telemetry

    # ------------------------------------------------------------- raw verbs

    @property
    def down(self):
        return self.link.down

    @property
    def up(self):
        return self.link.up

    @property
    def closed(self) -> bool:
        return self.link.closed

    def close(self, reason: str = "closed") -> int:
        return self.link.close(reason)

    # -------------------------------------------------------------- internals

    def _backoff(self, attempts: int) -> float:
        """Exponential backoff with seeded jitter for the (attempts+1)-th try."""
        raw = min(BASE_BACKOFF * (2.0**attempts), MAX_BACKOFF)
        return raw * (1.0 + JITTER * (2.0 * self._rng.random() - 1.0))

    def _send_frame(self, frame: Any, now: float) -> bool:
        if self.side == "cluster":
            return self.link.send_down(frame, now)
        return self.link.send_up(frame, now)

    def _recv_frames(self, now: float) -> list[Any]:
        if self.side == "cluster":
            return self.link.recv_up(now)
        return self.link.recv_down(now)

    def _reliable_send(self, payload: Any, now: float) -> bool:
        env = Envelope(seq=self._next_seq, payload=payload)
        self._next_seq += 1
        entry = _Outstanding(env, now, self._backoff(0))
        if len(self._outstanding) >= WINDOW:
            # Window full: the oldest unacked envelope is superseded by this
            # one (resend-current-state traffic — newest message wins).  The
            # replacement inherits the evicted envelope's delivery debt —
            # attempts, first-sent, retry clock — otherwise a sender busy
            # enough to wrap its window would reset the partition detector
            # on every wrap and a real partition would never be declared.
            evicted = self._outstanding.pop(min(self._outstanding))
            self.superseded += 1
            entry.attempts = evicted.attempts
            entry.first_sent = evicted.first_sent
            entry.next_retry = evicted.next_retry
        self._outstanding[env.seq] = entry
        return self._send_frame(env, now)

    def _pump_retransmits(self, now: float) -> None:
        for entry in self._outstanding.values():
            if now >= entry.next_retry:
                entry.attempts += 1
                entry.next_retry = now + self._backoff(entry.attempts)
                self._send_frame(entry.envelope, now)
                self.retransmits += 1
        if self.partitioned_since is None and any(
            e.attempts >= PARTITION_ATTEMPTS for e in self._outstanding.values()
        ):
            self.partitioned_since = now
            self.faults.append(PartitionStart(time=now, link=self.name))
            if self.telemetry.enabled:
                self.telemetry.incident("partition-detected", now, link=self.name)

    def _on_ack(self, ack: Ack, now: float) -> None:
        for seq in ack.seqs:
            if self._outstanding.pop(seq, None) is not None:
                self.acked += 1
        # An ack proves the link is alive: clear the partition evidence on
        # everything still outstanding.  Without this, baseline channel loss
        # accumulates attempts (inherited across window wraps) into spurious
        # partition declarations even while acks flow freely.
        for entry in self._outstanding.values():
            entry.attempts = 0
        if self.partitioned_since is not None:
            outage = now - self.partitioned_since
            self.faults.append(
                PartitionEnd(time=now, link=self.name, outage_seconds=outage)
            )
            if self.telemetry.enabled:
                self.telemetry.incident(
                    "partition-healed", now, link=self.name, outage_seconds=outage
                )
            self.partitioned_since = None

    def _deliver(self, env: Envelope) -> Any | None:
        """Dedupe by seq; returns the payload for fresh envelopes, else None."""
        if env.seq <= self._cum_floor or env.seq in self._seen:
            self.duplicates += 1
            return None
        self._seen.add(env.seq)
        while (self._cum_floor + 1) in self._seen:
            self._cum_floor += 1
            self._seen.discard(self._cum_floor)
        return env.payload

    def _reliable_recv(self, now: float) -> list[Any]:
        self._pump_retransmits(now)
        payloads: list[Any] = []
        to_ack: list[int] = []
        for frame in self._recv_frames(now):
            if isinstance(frame, Ack):
                self._on_ack(frame, now)
            elif isinstance(frame, Envelope):
                # Every envelope gets acked — including duplicates, whose
                # original ack may be the thing that was lost.
                to_ack.append(frame.seq)
                payload = self._deliver(frame)
                if payload is not None:
                    payloads.append(payload)
            else:
                # Bare payload from an unwrapped peer: pass through so
                # mixed configurations fail soft rather than drop mail.
                payloads.append(frame)
        if to_ack:
            self._send_frame(Ack(seqs=tuple(to_ack)), now)
        return payloads

    # ---------------------------------------------------------- TcpLink verbs

    # Cluster-side verbs.
    def send_down(self, payload: Any, now: float) -> bool:
        if self.side != "cluster":
            raise RuntimeError("send_down is a cluster-side verb")
        return self._reliable_send(payload, now)

    def recv_up(self, now: float) -> list[Any]:
        if self.side != "cluster":
            raise RuntimeError("recv_up is a cluster-side verb")
        return self._reliable_recv(now)

    # Job-side verbs.
    def send_up(self, payload: Any, now: float) -> bool:
        if self.side != "job":
            raise RuntimeError("send_up is a job-side verb")
        return self._reliable_send(payload, now)

    def recv_down(self, now: float) -> list[Any]:
        if self.side != "job":
            raise RuntimeError("recv_down is a job-side verb")
        return self._reliable_recv(now)
