"""Ack/retry reliability layer over :mod:`repro.core.transport`.

The raw :class:`~repro.core.transport.TcpLink` models loss honestly but
resolves it the way the paper does: every tier periodically resends current
state, so a dropped message only delays convergence.  That is fine for
status traffic and fatal for *safety* traffic — a dropped cap during a
partition leaves a job over budget until the next successful round, and
nobody finds out.  :class:`ReliableLink` closes that gap:

* **sequence numbers** — every application payload rides in an
  :class:`Envelope` with a per-direction, monotonically increasing ``seq``;
* **idempotent receive** — the receiver dedupes by seq (cumulative floor +
  sparse set above it), so retransmits are harmless;
* **acks + retransmit** — receivers batch-acknowledge every envelope seq
  they see; senders retransmit unacked envelopes on an exponential backoff
  with jitter drawn from the *seeded* RNG (retry storms stay reproducible);
* **bounded window** — at most ``WINDOW`` envelopes outstanding; when full,
  the oldest is superseded (dropped locally, counted) — correct for
  resend-current-state protocols where the newest message obsoletes older
  ones;
* **partition detection** — an envelope retransmitted
  ``PARTITION_ATTEMPTS`` times *with no intervening ack* flips the link
  into a declared partition (a :class:`~repro.faults.events.PartitionStart`
  record + telemetry incident); the first ack after that declares
  :class:`~repro.faults.events.PartitionEnd` with the measured outage.
  Attempt counts survive window wraps (a superseding envelope inherits the
  evicted one's delivery debt) and reset on every ack, so the detector
  measures sustained silence, not cumulative baseline loss.

One ReliableLink wraps one *side* of a TcpLink: the manager holds a
``side="cluster"`` wrapper (envelopes go down, acks come back up) and the
endpoint a ``side="job"`` wrapper, sharing no state except the wire.  The
wrapper exposes the TcpLink verbs plus ``.up``/``.down``/``close``/
``closed``, so the fault injector and the no-silent-loss ledger keep
working against the raw channels underneath.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.transport import TcpLink
from repro.faults.events import PartitionEnd, PartitionStart
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.util.rng import ensure_rng

__all__ = ["Envelope", "Ack", "ReliableLink"]

#: Envelopes a sender keeps outstanding; a ninth supersedes the oldest.
WINDOW = 8
#: Retransmit backoff (s): BASE_BACKOFF · 2^attempts, capped at MAX_BACKOFF
#: (never below the base), each draw scaled by 1 ± JITTER from the seeded RNG
#: so retry storms desynchronise yet replay exactly.
BASE_BACKOFF = 2.0
MAX_BACKOFF = 30.0
JITTER = 0.25
#: Retransmits of one envelope with no intervening ack that declare a
#: partition: with the backoff above, about 14 s of silence.
PARTITION_ATTEMPTS = 3


@dataclass(frozen=True)
class Envelope:
    """One reliably-delivered application payload."""

    seq: int
    payload: Any


@dataclass(frozen=True)
class Ack:
    """Batched acknowledgement of every envelope seq seen this receive."""

    seqs: tuple[int, ...]


class _Outstanding:
    """Sender-side bookkeeping for one unacked envelope."""

    __slots__ = ("envelope", "first_sent", "attempts", "next_retry")

    def __init__(self, envelope: Envelope, now: float, first_backoff: float) -> None:
        self.envelope = envelope
        self.first_sent = now
        self.attempts = 0  # retransmits so far (the original send is free)
        self.next_retry = now + first_backoff


class ReliableLink:
    """One side of a reliable connection over a raw :class:`TcpLink`."""

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
