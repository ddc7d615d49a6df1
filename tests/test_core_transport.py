"""Tests for latency-modelled message channels."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.transport import LatencyChannel, TcpLink


class TestLatencyChannel:
    def test_delivery_after_latency(self):
        ch = LatencyChannel(latency=0.5)
        ch.send("msg", now=1.0)
        assert ch.receive(1.2) == []
        assert ch.receive(1.5) == ["msg"]

    def test_fifo_order_preserved(self):
        ch = LatencyChannel(latency=0.1)
        for i in range(5):
            ch.send(i, now=float(i))
        assert ch.receive(10.0) == [0, 1, 2, 3, 4]

    def test_zero_latency_same_instant(self):
        ch = LatencyChannel(latency=0.0)
        ch.send("x", now=2.0)
        assert ch.receive(2.0) == ["x"]

    def test_messages_not_redelivered(self):
        ch = LatencyChannel(latency=0.0)
        ch.send("x", now=0.0)
        assert ch.receive(0.0) == ["x"]
        assert ch.receive(1.0) == []

    def test_in_flight_count(self):
        ch = LatencyChannel(latency=1.0)
        ch.send("a", now=0.0)
        ch.send("b", now=0.0)
        assert ch.in_flight == 2
        ch.receive(1.0)
        assert ch.in_flight == 0

    def test_counters(self):
        ch = LatencyChannel(latency=0.0)
        ch.send("a", now=0.0)
        ch.receive(0.0)
        assert ch.sent == 1
        assert ch.delivered == 1
        assert ch.dropped == 0

    def test_drops_with_probability_one_ish(self):
        ch = LatencyChannel(latency=0.0, drop_probability=0.999, seed=0)
        results = [ch.send("x", now=0.0) for _ in range(200)]
        assert sum(results) < 10  # nearly everything dropped
        assert ch.dropped > 180

    def test_deliver_at_order_when_latency_lowered(self):
        # A message sent later over a faster link arrives first; the old
        # FIFO queue would have held it hostage behind the slow one.
        ch = LatencyChannel(latency=5.0)
        ch.send("slow", now=0.0)  # arrives t=5
        ch.latency = 1.0
        ch.send("fast", now=0.0)  # arrives t=1
        assert ch.receive(1.0) == ["fast"]
        assert ch.receive(5.0) == ["slow"]

    def test_deliver_at_ties_preserve_send_order(self):
        ch = LatencyChannel(latency=2.0)
        ch.send("first", now=0.0)
        ch.latency = 1.0
        ch.send("second", now=1.0)  # same arrival instant, t=2
        assert ch.receive(2.0) == ["first", "second"]

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError, match="≥ 0"):
            LatencyChannel(latency=-1.0)

    def test_bad_drop_probability_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            LatencyChannel(drop_probability=1.0)


class TestTcpLink:
    def test_duplex_independence(self):
        link = TcpLink(latency=0.0)
        link.send_down("cap", now=0.0)
        link.send_up("status", now=0.0)
        assert link.recv_down(0.0) == ["cap"]
        assert link.recv_up(0.0) == ["status"]

    def test_down_not_visible_on_up(self):
        link = TcpLink(latency=0.0)
        link.send_down("cap", now=0.0)
        assert link.recv_up(0.0) == []

    def test_latency_applies_both_ways(self):
        link = TcpLink(latency=0.2)
        link.send_down("a", now=0.0)
        link.send_up("b", now=0.0)
        assert link.recv_down(0.1) == []
        assert link.recv_up(0.1) == []
        assert link.recv_down(0.2) == ["a"]
        assert link.recv_up(0.2) == ["b"]


# One op per simulated second: sends, receives, partition toggles, hard
# closes, and full channel replacement (the reconnect path tears the old
# channel down mid-flight and dials a new one).
_LEDGER_OPS = st.lists(
    st.one_of(
        st.just(("send",)),
        st.just(("recv",)),
        st.tuples(st.just("partition"), st.booleans()),
        st.just(("close",)),
        st.just(("replace",)),
    ),
    max_size=60,
)


class TestNoSilentLossLedger:
    """Every message is accounted for: sent == delivered + dropped + in_flight.

    The observability contract (see LatencyChannel): a message can only be
    in the queue, delivered, or dropped with a named reason — there is no
    fourth bucket.  The property must survive partition start/end, lossy
    retries, hard closes, and channel replacement.
    """

    @given(
        ops=_LEDGER_OPS,
        drop=st.sampled_from([0.0, 0.3, 0.6]),
        seed=st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=60, deadline=None)
    def test_ledger_balances_after_every_operation(self, ops, drop, seed):
        def fresh():
            return LatencyChannel(latency=1.5, drop_probability=drop, seed=seed)

        channels = [fresh()]

        def check():
            for ch in channels:
                assert ch.sent == ch.delivered + ch.dropped + ch.in_flight
                assert ch.dropped == sum(ch.drop_reasons.values())

        t = 0.0
        for op in ops:
            t += 1.0
            ch = channels[-1]
            if op[0] == "send":
                ch.send(("payload", t), t)
            elif op[0] == "recv":
                ch.receive(t)
            elif op[0] == "partition":
                ch.partitioned = op[1]
            elif op[0] == "close":
                ch.close("closed")
            else:  # replace: discard in-flight mail, dial a new channel
                ch.close("reconnect")
                channels.append(fresh())
            check()
        # Shutdown drains every queue into a named drop bucket.
        for ch in channels:
            ch.close("shutdown")
        check()
        total_sent = sum(ch.sent for ch in channels)
        total_accounted = sum(ch.delivered + ch.dropped for ch in channels)
        assert total_sent == total_accounted

    def test_ledger_balances_under_reliable_retry_storm(self):
        # The ack/retry layer on top must not break the raw accounting:
        # drive a ReliableLink pair through a partition (retransmits pile
        # up, then flush on heal) and re-check both directions.
        from repro.core.reliable import ReliableLink

        link = TcpLink(latency=0.5, drop_probability=0.2, seed=3)
        cluster = ReliableLink(link, "cluster", seed=1)
        job = ReliableLink(link, "job", seed=2)
        t = 0.0
        for round_no in range(120):
            t += 1.0
            if round_no == 30:
                link.down.partitioned = link.up.partitioned = True
            if round_no == 70:
                link.down.partitioned = link.up.partitioned = False
            cluster.send_down(("cap", t), t)
            job.recv_down(t)
            job.send_up(("status", t), t)
            cluster.recv_up(t)
            for ch in (link.down, link.up):
                assert ch.sent == ch.delivered + ch.dropped + ch.in_flight
                assert ch.dropped == sum(ch.drop_reasons.values())
        assert cluster.retransmits > 0  # the storm actually happened
