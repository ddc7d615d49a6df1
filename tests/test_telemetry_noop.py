"""Telemetry-off must be free: bit-identical runs, null wiring, link ledger.

The subsystem's core contract (DESIGN.md §8): with telemetry disabled — the
default — no instrumented path allocates, draws RNG, or perturbs a single
number.  These tests pin that by running the same seeded scenario with and
without telemetry and comparing traces bitwise, and by checking the
transport-layer accounting that feeds the link counters.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core.framework import AnorConfig, AnorSystem
from repro.core.transport import LatencyChannel, TcpLink
from repro.experiments.fig9 import build_demand_response_system
from repro.faults.events import HeadNodeCrash, NetworkPartition
from repro.faults.schedule import FaultSchedule
from repro.telemetry import NULL_TELEMETRY
from repro.workloads.trace import JobRequest, Schedule


def run_traces(duration=120.0, *, telemetry_enabled, fault_schedule=None, seed=0):
    cfg = AnorConfig(seed=seed, telemetry_enabled=telemetry_enabled)
    system = build_demand_response_system(
        duration=duration, seed=seed, config=cfg, fault_schedule=fault_schedule
    )
    result = system.run(duration)
    return result.power_trace, result


class TestDisabledIsNoop:
    def test_default_config_gets_the_shared_null(self):
        system = build_demand_response_system(duration=10.0, seed=0)
        assert system.telemetry is NULL_TELEMETRY
        assert not system.telemetry.enabled
        assert system.metrics_server is None

    def test_power_trace_bit_identical_with_and_without_telemetry(self):
        off, _ = run_traces(telemetry_enabled=False)
        on, _ = run_traces(telemetry_enabled=True)
        assert off.shape == on.shape
        assert np.array_equal(off, on)

    def test_bit_identical_under_faults_too(self):
        # Fault paths draw RNG (loss, crash timing); incidents must not
        # shift any stream.
        schedule = FaultSchedule.standard_load(120.0)
        off, r_off = run_traces(telemetry_enabled=False, fault_schedule=schedule)
        schedule2 = FaultSchedule.standard_load(120.0)
        on, r_on = run_traces(telemetry_enabled=True, fault_schedule=schedule2)
        assert np.array_equal(off, on)
        assert r_off.fault_log == r_on.fault_log

    def test_null_telemetry_surface_is_inert(self):
        NULL_TELEMETRY.incident("cat", 0.0)
        NULL_TELEMETRY.event("e", 0.0)
        NULL_TELEMETRY.flush()
        NULL_TELEMETRY.close()
        assert NULL_TELEMETRY.incidents() == []
        assert NULL_TELEMETRY.incident_counts == {}


class TestChannelAccounting:
    """Satellite: every vanished message is counted with a reason."""

    def test_random_loss_counted_as_loss(self):
        ch = LatencyChannel(0.0, drop_probability=0.5, seed=7)
        for i in range(200):
            ch.send(i, now=0.0)
        assert ch.sent == 200
        assert ch.dropped > 0
        assert ch.drop_reasons == {"loss": ch.dropped}
        assert ch.dropped + ch.in_flight == 200

    def test_send_into_closed_channel_counted(self):
        ch = LatencyChannel(0.0)
        ch.close()
        assert ch.send("msg", now=0.0) is False
        assert ch.drop_reasons == {"closed": 1}

    def test_close_drains_in_flight_with_reason(self):
        ch = LatencyChannel(1.0)
        ch.send("a", now=0.0)
        ch.send("b", now=0.0)
        assert ch.close("head-crash") == 2
        assert ch.drop_reasons == {"head-crash": 2}
        assert ch.closed
        assert ch.close("again") == 0  # idempotent

    def test_closing_does_not_shift_the_loss_rng(self):
        # The loss draw happens before the closed check, so a closed lossy
        # channel consumes the same RNG stream as an open one — seeded runs
        # stay bit-identical whether or not links get torn down.
        a = LatencyChannel(0.0, drop_probability=0.3, seed=42)
        b = LatencyChannel(0.0, drop_probability=0.3, seed=42)
        b.close()
        lost_a = [not a.send(i, now=0.0) for i in range(100)]
        lost_b = [b.drop_reasons.get("loss", 0)]
        for i in range(100):
            b.send(i, now=0.0)
        # Same loss pattern: b's "loss" drops equal a's, the rest are "closed".
        assert b.drop_reasons.get("loss", 0) == sum(lost_a)
        assert b.drop_reasons.get("closed", 0) == 100 - sum(lost_a)
        assert lost_b == [0]

    def test_reorder_counted_when_latency_drops_midflight(self):
        ch = LatencyChannel(10.0)
        ch.send("slow", now=0.0)       # arrives at t=10
        ch.latency = 1.0
        ch.send("fast", now=0.0)       # arrives at t=1, overtaking
        assert ch.receive(5.0) == ["fast"]
        got = ch.receive(20.0)
        assert got == ["slow"]
        assert ch.reordered == 1
        assert ch.delivered == 2

    def test_in_order_delivery_counts_no_reorders(self):
        ch = LatencyChannel(0.5)
        for i in range(5):
            ch.send(i, now=float(i))
        assert ch.receive(100.0) == list(range(5))
        assert ch.reordered == 0

    def test_tcplink_close_totals_both_directions(self):
        link = TcpLink(1.0)
        link.send_down("d", now=0.0)
        link.send_up("u1", now=0.0)
        link.send_up("u2", now=0.0)
        assert link.close("evicted") == 3
        assert link.closed
        assert link.down.drop_reasons == {"evicted": 1}
        assert link.up.drop_reasons == {"evicted": 2}


def collect_links(system, keep=lambda link: link):
    """Record every link ``system`` creates (the test holds them, not it)."""
    links = []
    make = system._make_link

    def recording():
        link = make()
        links.append(keep(link))
        return link

    system._make_link = recording
    return links


def channel_sums(links):
    """Per-channel truth: the counters each channel keeps for itself."""
    sent = delivered = reordered = 0
    dropped = {}
    for link in links:
        for ch in (link.down, link.up):
            sent += ch.sent
            delivered += ch.delivered
            reordered += ch.reordered
            assert ch.dropped == sum(ch.drop_reasons.values())
            for reason, n in ch.drop_reasons.items():
                dropped[reason] = dropped.get(reason, 0) + n
    return sent, delivered, reordered, dropped


def published(reg, reasons):
    """The same four totals as the registry currently exports them."""
    return (
        reg.get_value("anor_link_messages_sent_total"),
        reg.get_value("anor_link_messages_delivered_total"),
        reg.get_value("anor_link_messages_reordered_total"),
        {
            reason: reg.get_value("anor_link_messages_dropped_total", reason=reason)
            for reason in reasons
        },
    )


class TestLinkLedgerMetrics:
    def test_cluster_counters_aggregate_all_links(self):
        cfg = AnorConfig(seed=3, telemetry_enabled=True)
        system = build_demand_response_system(duration=60.0, seed=3, config=cfg)
        links = collect_links(system)
        system.run(60.0)
        reg = system.telemetry.registry
        sent = reg.get_value("anor_link_messages_sent_total")
        delivered = reg.get_value("anor_link_messages_delivered_total")
        assert sent is not None and sent > 0
        assert delivered is not None and 0 < delivered <= sent
        # Ledger truth: the counters must match a direct sum over every link
        # ever created, including closed/replaced ones.
        truth = channel_sums(links)
        assert sent == truth[0]
        assert published(reg, truth[3]) == truth

    def test_ledger_equals_channel_sums_under_faults(self, tmp_path):
        """Link replacement, partition drops and a head-node restart: every
        send, delivery and drop a channel counted is in the ledger once."""
        duration = 240.0
        schedule = FaultSchedule.standard_load(duration).extended(
            [
                NetworkPartition(time=60.0, duration=20.0),
                HeadNodeCrash(time=130.0, down_for=15.0),
            ]
        )
        cfg = AnorConfig(
            seed=5,
            telemetry_enabled=True,
            lease_ttl=20.0,
            checkpoint_dir=str(tmp_path),
            checkpoint_period=30.0,
        )
        system = build_demand_response_system(
            duration=duration, seed=5, config=cfg, fault_schedule=schedule
        )
        links = collect_links(system)
        reg = system.telemetry.registry
        sample = system._sample_link_counters
        samples = []

        def checked_sample():
            # Published truth, at the instant of publication: every counter
            # the registry exports equals the sum over the channels.
            sample()
            truth = channel_sums(links)
            assert published(reg, truth[3]) == truth
            samples.append(truth[0])

        system._sample_link_counters = checked_sample
        last = 0.0
        for _ in range(int(duration)):
            system.step()
            sent = reg.get_value("anor_link_messages_sent_total")
            assert sent >= last  # monotone across replacement and restart
            last = sent
        assert len(samples) == int(duration) and samples[-1] == last
        sent, delivered, reordered, dropped = channel_sums(links)
        ledger = system._link_ledger
        assert (ledger.sent, ledger.delivered, ledger.reordered) == (
            sent, delivered, reordered
        )
        assert ledger.dropped == dropped
        assert {"loss", "partition", "replaced", "head-crash"} <= set(dropped), dropped
        assert system.head_crashes == 1
        assert sent == delivered + sum(dropped.values()) + sum(
            ch.in_flight for link in links for ch in (link.down, link.up)
        )

    def test_finished_jobs_link_is_collectable(self):
        """Nothing in the system keeps a finished job's link alive."""
        schedule = Schedule(
            [JobRequest(submit_time=0.0, job_id="only", type_name="cg", nodes=2)]
        )
        system = AnorSystem(
            schedule=schedule,
            config=AnorConfig(num_nodes=4, seed=1, telemetry_enabled=True),
        )
        refs = collect_links(system, keep=weakref.ref)
        result = system.run(until_idle=True, max_time=3600.0)
        assert [t.job_id for t in result.completed] == ["only"]
        system.run(5.0)  # the goodbye reaches the manager, which drops the link
        assert refs and system._link_ledger.sent > 0
        gc.collect()
        assert all(ref() is None for ref in refs)
