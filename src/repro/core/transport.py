"""Latency-modelled in-process message channels.

The paper's tiers communicate over TCP between the head node and one
compute-node process per job (§3).  :class:`LatencyChannel` is a one-way
queue whose messages become visible ``latency`` seconds after sending;
:class:`TcpLink` pairs two of them into a full-duplex connection.  Optional
random message drop lets tests exercise the control plane's tolerance to
lost updates (callers always resend current state rather than deltas, so a
drop only delays convergence — a property the tests pin down).
"""

from __future__ import annotations

import heapq
from typing import Any

import numpy as np

from repro.util.rng import ensure_rng

__all__ = ["LinkLedger", "LatencyChannel", "TcpLink"]


class LinkLedger:
    """Running totals over every channel posting to it; outlives the links."""

    def __init__(self) -> None:
        self.sent = self.delivered = self.reordered = 0
        self.dropped: dict[str, int] = {}


class LatencyChannel:
    """One-way queue with per-send delivery latency and optional drops.

    Delivery order is ``(deliver_at, seq)``: a message sent after another can
    overtake it only if it genuinely arrives earlier (its latency was lower),
    and ties break by send order.  A plain FIFO gets this wrong when the
    channel latency is *lowered* mid-flight (a link-degradation window
    closing): messages sent under the old latency would block earlier-arriving
    ones behind them at the head of the queue.
    """

    def __init__(
        self,
        latency: float = 0.05,
        *,
        drop_probability: float = 0.0,
        seed: int | np.random.Generator | None = None,
        ledger: LinkLedger | None = None,
    ) -> None:
        if latency < 0:
            raise ValueError(f"latency must be ≥ 0, got {latency}")
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError(f"drop_probability must be in [0, 1), got {drop_probability}")
        self.latency = float(latency)
        self.drop_probability = float(drop_probability)
        self._rng = ensure_rng(seed)
        # Min-heap of (deliver_at, seq, payload); seq is unique, so payloads
        # are never compared and ties resolve to send order.
        self._queue: list[tuple[float, int, Any]] = []
        self._seq = 0
        self.ledger = ledger or LinkLedger()  # private when built alone
        self.sent = 0
        self.dropped = 0
        self.delivered = 0
        # Observability contract: *every* message that vanishes increments
        # ``dropped`` and a reason bucket here — random loss, a send into a
        # closed channel, or in-flight mail discarded when the channel
        # closes.  Silent loss is a bug (see repro.telemetry).
        self.drop_reasons: dict[str, int] = {}
        # Deliveries that overtook an earlier-sent message (latency lowered
        # mid-flight); counted at receive time.
        self.reordered = 0
        self._max_seq_delivered = -1
        self.closed = False
        # Network partition: the peer is unreachable but the channel object
        # survives (unlike ``closed``, which is terminal).  Sends during the
        # partition blackhole with reason "partition"; messages already in
        # flight still deliver (they left before the cut).
        self.partitioned = False

    def _drop(self, reason: str) -> None:
        self.dropped += 1
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1
        shared = self.ledger.dropped
        shared[reason] = shared.get(reason, 0) + 1

    def send(self, payload: Any, now: float) -> bool:
        """Enqueue a message at time ``now``; returns False if dropped.

        The loss draw happens before the closed check so that closing a
        channel never shifts the RNG stream of a lossy link — seeded runs
        stay bit-identical whether or not anyone closes links.
        """
        self.sent += 1
        self.ledger.sent += 1
        if self.drop_probability > 0 and self._rng.random() < self.drop_probability:
            self._drop("loss")
            return False
        if self.closed:
            # The peer is gone (dead head node, replaced link): a real TCP
            # send here returns ECONNRESET.  Count it — an endpoint shouting
            # into a dead link is exactly what telemetry must surface.
            self._drop("closed")
            return False
        if self.partitioned:
            # Partition blackhole: the message leaves the NIC and dies in
            # the network.  Checked after the loss draw (RNG-stream
            # preservation) and after ``closed`` (a closed channel stays
            # closed even inside a partition window).
            self._drop("partition")
            return False
        heapq.heappush(self._queue, (now + self.latency, self._seq, payload))
        self._seq += 1
        return True

    def receive(self, now: float) -> list[Any]:
        """Pop every message whose delivery time has arrived, in (deliver_at, seq) order."""
        out: list[Any] = []
        while self._queue and self._queue[0][0] <= now:
            _, seq, payload = heapq.heappop(self._queue)
            if seq < self._max_seq_delivered:
                self.reordered += 1
                self.ledger.reordered += 1
            else:
                self._max_seq_delivered = seq
            out.append(payload)
        self.delivered += len(out)
        self.ledger.delivered += len(out)
        return out

    def close(self, reason: str = "closed") -> int:
        """Tear the channel down; in-flight messages drop as ``reason``.

        Idempotent.  Returns how many queued messages were discarded so the
        caller can log the loss.  Subsequent sends drop with reason
        ``"closed"`` instead of queueing into the void.
        """
        discarded = len(self._queue)
        for _ in range(discarded):
            self._drop(reason)
        self._queue.clear()
        self.closed = True
        return discarded

    @property
    def in_flight(self) -> int:
        return len(self._queue)


class TcpLink:
    """Full-duplex link: a downlink (cluster→job) and an uplink (job→cluster).

    ``latency_down``/``latency_up`` override the shared ``latency`` for one
    direction — head-node egress and compute-node egress cross different
    switches in a real deployment, and fault injection uses the asymmetry to
    model congested uplinks.
    """

    def __init__(
        self,
        latency: float = 0.05,
        *,
        drop_probability: float = 0.0,
        latency_down: float | None = None,
        latency_up: float | None = None,
        seed: int | np.random.Generator | None = None,
        ledger: LinkLedger | None = None,
    ) -> None:
        rng = ensure_rng(seed)
        ledger = ledger or LinkLedger()  # one for both directions
        self.down = LatencyChannel(
            latency if latency_down is None else latency_down,
            drop_probability=drop_probability,
            seed=rng,
            ledger=ledger,
        )
        self.up = LatencyChannel(
            latency if latency_up is None else latency_up,
            drop_probability=drop_probability,
            seed=rng,
            ledger=ledger,
        )

    def close(self, reason: str = "closed") -> int:
        """Close both directions; returns total in-flight messages dropped."""
        return self.down.close(reason) + self.up.close(reason)

    @property
    def closed(self) -> bool:
        return self.down.closed and self.up.closed

    # Cluster-side verbs.
    def send_down(self, payload: Any, now: float) -> bool:
        return self.down.send(payload, now)

    def recv_up(self, now: float) -> list[Any]:
        return self.up.receive(now)

    # Job-side verbs.
    def send_up(self, payload: Any, now: float) -> bool:
        return self.up.send(payload, now)

    def recv_down(self, now: float) -> list[Any]:
        return self.down.receive(now)
