"""The fault injector: drives a :class:`FaultSchedule` against a system.

The injector is installed by :class:`~repro.core.framework.AnorSystem` when
it is built with a ``fault_schedule``; the system calls :meth:`tick` once
per simulated second, before the control plane runs, so a fault landing at
tick *t* shapes the very next budgeting round — the same ordering a real
crash has relative to the manager's periodic loop.

Everything is deterministic: events fire in schedule order, targets chosen
at fire time (``job_id=None`` events) are resolved by sorted job id, and
window resolutions (link restored, node rejoins, meter back) run in
(time, insertion) order.  The resulting :attr:`log` is bit-identical for a
given (seed, schedule) pair — the property the resilience benchmark pins.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING, Callable

from repro.core.framework import FeedConditions
from repro.core.messages import StatusMessage
from repro.faults.events import (
    ByzantineModel,
    CorruptStatus,
    DemandResponseEmergency,
    EndpointCrash,
    FaultEvent,
    FeederLoss,
    HeadNodeCrash,
    HeadNodeRestart,
    LinkDegradation,
    MeterDrift,
    MeterOutage,
    NetworkPartition,
    NodeCrash,
    PartitionEnd,
    PartitionStart,
    StuckActuator,
    TargetOutage,
    ThermalDerate,
)
from repro.faults.schedule import FaultSchedule
from repro.geopm.agent import AgentPolicy
from repro.modeling.quadratic import QuadraticPowerModel
from repro.workloads.nas import P_NODE_MAX, P_NODE_MIN

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.framework import AnorSystem, LinkConditions

__all__ = ["FaultInjector"]


#: Facility incidents that scale the feed to ``1 - magnitude``.
_FEED_INCIDENTS = (FeederLoss, ThermalDerate, DemandResponseEmergency)
#: The faults that open a window: what the log calls each, and the parameters
#: its start line carries ahead of the duration.
_WINDOWS = {
    MeterOutage: ("meter-outage", ""),
    TargetOutage: ("target-outage", ""),
    FeederLoss: ("feeder-loss", "magnitude={0.magnitude:.2f} "),
    ThermalDerate: ("thermal-derate", "magnitude={0.magnitude:.2f} "),
    DemandResponseEmergency: ("demand-response", "magnitude={0.magnitude:.2f} "),
    LinkDegradation: (
        "link-degrade",
        "drop={0.drop_probability:.3f} extra_latency={0.extra_latency:.3f} ",
    ),
    NetworkPartition: ("partition", ""),
}


class FaultInjector:
    """Applies scheduled faults to a running :class:`AnorSystem`."""

    def __init__(self, system: "AnorSystem", schedule: FaultSchedule) -> None:
        self.system = system
        self.schedule = schedule
        self.log: list[str] = []
        self._pending: list[FaultEvent] = list(schedule.events)
        # (resolve_time, seq, log_line, action) — seq keeps resolution order
        # deterministic when two windows close on the same tick.
        self._resolutions: list[tuple[float, int, str, Callable[[], None]]] = []
        self._seq = 0
        # Every open window, in the order they opened: key -> (scope, event),
        # scope the one link a job-scoped window holds (None: cluster-wide).
        # ``system.feed_conditions``, ``system.link_conditions`` and every
        # live link are functions of this table alone (``_sync``), so windows
        # that overlap compose and the last one to close leaves nothing behind.
        self._open: dict[int, tuple[object, FaultEvent]] = {}
        self._healthy_net = replace(system.link_conditions)
        # Jobs currently carrying a rogue-endpoint fault (byzantine model,
        # stuck actuator, meter drift): auto-targeted rogue events skip
        # them so a storm spreads across distinct victims.
        self._rogued: set[str] = set()
        # job_id -> (fault kind, fire time, heal time | None): the first
        # job-targeted fault each job took, for drills and invariants that
        # ask "was this job ever a victim?" without parsing ``log``.
        self.victims: dict[str, tuple[str, float, float | None]] = {}

    # ------------------------------------------------------------ plumbing

    def _record(self, now: float, line: str) -> None:
        self.log.append(f"t={now:10.1f} {line}")
        telemetry = self.system.telemetry
        if telemetry.enabled:
            # Every injected fault (and window resolution) doubles as an
            # incident on the event bus.  The "fault:" prefix marks these as
            # *injected* causes; unprefixed categories are effects observed
            # by the framework (eviction, meter-fault, head-restart ...).
            telemetry.incident(f"fault:{line.split(None, 1)[0]}", now, detail=line)

    def _record_victim(
        self, now: float, kind: str, job_id: str, duration: float = math.inf
    ) -> None:
        heal = now + duration if math.isfinite(duration) else None
        self.victims.setdefault(job_id, (kind, now, heal))

    def _defer(self, at: float, line: str, action: Callable[[], None]) -> None:
        self._resolutions.append((at, self._seq, line, action))
        self._seq += 1

    # ------------------------------------------------------------- windows

    def _fire_window(self, event: FaultEvent, now: float) -> None:
        """Put ``event`` on the table of open windows for its duration.

        A degradation or partition is cluster-wide — every live link and,
        through ``system.link_conditions``, every link dialled while it is
        open (reconnect attempts during the outage included) — or job-scoped,
        holding the one link the job has now.
        """
        label, detail = _WINDOWS[type(event)]
        scope, who = None, ""
        if isinstance(event, (LinkDegradation, NetworkPartition)):
            who = " scope=all"
            if event.job_id is not None:
                endpoint = self.system.endpoints.get(event.job_id)
                if endpoint is None:
                    self._record(
                        now, f"{label} job={event.job_id} skipped (no live endpoint)"
                    )
                    return
                scope, who = endpoint.link, f" job={event.job_id}"
        key = self._seq
        self._open[key] = (scope, event)
        self._sync()
        self._record(
            now,
            f"{label} start{who} {detail.format(event)}duration={event.duration:.1f}",
        )

        def close() -> None:
            del self._open[key]
            self._sync(scope)

        self._defer(now + event.duration, f"{label} end{who}", close)

    def _link_state(self, link: object = None) -> LinkConditions:
        """What the open windows make of a healthy link: the cluster-wide
        ones, and for ``link`` the job-scoped ones holding it too.  The latest
        degradation sets the loss, extra latencies add, and any partition
        blackholes."""
        net = replace(self._healthy_net)
        for scope, event in self._open.values():
            if scope is not None and scope is not link:
                continue
            if isinstance(event, LinkDegradation):
                net.drop_probability = event.drop_probability
                net.latency_up += event.extra_latency
                net.latency_down += event.extra_latency
            elif isinstance(event, NetworkPartition):
                net.partitioned = True
        return net

    def _feed_state(self) -> FeedConditions:
        """What the open windows make of the facility's readings: dark or
        down while any outage is open, concurrent facility incidents
        multiplying (two 30 % losses leave 49 % of the feed)."""
        feed = FeedConditions()
        for _, event in self._open.values():
            if isinstance(event, MeterOutage):
                feed.meter_dark = True
            elif isinstance(event, TargetOutage):
                feed.target_down = True
            elif isinstance(event, _FEED_INCIDENTS):
                feed.target_scale *= 1.0 - event.magnitude
        return feed

    def _sync(self, released: object = None) -> None:
        """Re-derive everything a window can touch from the open windows:
        the facility's readings, what a link dialled now is born with, and
        every live link — plus the link a job-scoped window just
        ``released``, live or not (a link replaced mid-window still draws
        from the shared RNG while it is lossy)."""
        self.system.feed_conditions = self._feed_state()
        self.system.link_conditions = self._link_state()
        links = [endpoint.link for endpoint in self.system.endpoints.values()]
        if released is not None:
            links.append(released)
        for link in links:
            net = self._link_state(link)
            for channel, latency in (
                (link.up, net.latency_up), (link.down, net.latency_down)
            ):
                channel.drop_probability = net.drop_probability
                channel.latency = latency
                channel.partitioned = net.partitioned

    # ------------------------------------------------------------- driving

    def tick(self, now: float) -> None:
        """Fire every event and resolution due at or before ``now``."""
        due_res = sorted(
            (r for r in self._resolutions if r[0] <= now), key=lambda r: (r[0], r[1])
        )
        if due_res:
            self._resolutions = [r for r in self._resolutions if r[0] > now]
            for _, _, line, action in due_res:
                action()
                self._record(now, line)
        while self._pending and self._pending[0].time <= now:
            event = self._pending.pop(0)
            self._fire(event, now)

    @property
    def quiescent(self) -> bool:
        """True once every event has fired and every window has closed."""
        return not self._pending and not self._resolutions

    @property
    def next_due(self) -> float:
        """Earliest instant :meth:`tick` would act; +inf when quiescent.

        Both firing rules are ``time <= now`` checks, so a tick strictly
        before this instant is a guaranteed no-op — the event-driven loop
        uses that to stride across fault-free stretches.
        """
        due = math.inf
        if self._pending:
            due = self._pending[0].time
        for resolution in self._resolutions:
            if resolution[0] < due:
                due = resolution[0]
        return due

    def log_lines(self) -> list[str]:
        return list(self.log)

    def render(self) -> str:
        return "\n".join(self.log)

    # -------------------------------------------------------------- events

    def _fire(self, event: FaultEvent, now: float) -> None:
        handler = self._HANDLERS.get(type(event))
        if handler is None:  # pragma: no cover - exhaustive over the vocabulary
            raise TypeError(f"unknown fault event {event!r}")
        handler(self, event, now)

    def _fire_node_crash(self, event: NodeCrash, now: float) -> None:
        cluster = self.system.cluster
        if event.node_id >= cluster.num_nodes:
            self._record(now, f"node-crash node={event.node_id} skipped (no such node)")
            return
        if cluster.nodes[event.node_id].failed:
            self._record(now, f"node-crash node={event.node_id} skipped (already down)")
            return
        killed = self.system.crash_node(event.node_id, now)
        self._record(
            now,
            f"node-crash node={event.node_id} killed={killed or '-'} "
            f"down_for={event.down_for:.1f}",
        )
        if math.isfinite(event.down_for):
            node_id = event.node_id
            self._defer(
                now + event.down_for,
                f"node-restore node={node_id}",
                lambda: cluster.restore_node(node_id),
            )

    def _fire_head_crash(self, event: HeadNodeCrash, now: float) -> None:
        if not self.system.crash_head_node(now):
            self._record(now, "head-crash skipped (already down)")
            return
        self._record(now, f"head-crash down_for={event.down_for:.1f}")
        if math.isfinite(event.down_for):
            self._defer(
                now + event.down_for,
                "head-restart",
                lambda: self.system.restart_head_node(),
            )

    def _fire_head_restart(self, event: HeadNodeRestart, now: float) -> None:
        if not self.system.restart_head_node(now):
            self._record(now, "head-restart skipped (head already up)")
            return
        self._record(now, "head-restart")

    def _pick_job(self, job_id: str | None) -> str | None:
        if job_id is not None:
            return job_id
        live = sorted(self.system.endpoints)
        return live[0] if live else None

    def _pick_fresh_job(self, job_id: str | None) -> str | None:
        """Pick a victim for a rogue-endpoint fault.

        Skips jobs already carrying a rogue fault so that successive
        auto-targeted rogue events hit distinct victims, and among the
        fresh ones picks the job with the most *remaining work* (uncapped
        seconds left, ties by id) — the adversarial worst case, since a
        rogue endpoint that exits seconds later does no lasting damage.
        Deterministic for a given system state.
        """
        if job_id is not None:
            return job_id
        candidates = []
        for jid, job in self.system.cluster.running.items():
            if jid not in self.system.endpoints or jid in self._rogued:
                continue
            jt = job.job_type
            remaining = (1.0 - job.progress) * jt.t_uncapped
            candidates.append((remaining, jid))
        if not candidates:
            return None
        return max(candidates)[1]

    def _fire_endpoint_crash(self, event: EndpointCrash, now: float) -> None:
        job_id = self._pick_job(event.job_id)
        if job_id is None or job_id not in self.system.endpoints:
            self._record(now, "endpoint-crash skipped (no live endpoint)")
            return
        self.system.crash_endpoint(job_id, now)
        self._record(now, f"endpoint-crash job={job_id}")
        self._record_victim(now, "endpoint-crash", job_id)

    def _fire_corrupt_status(self, event: CorruptStatus, now: float) -> None:
        job_id = self._pick_job(event.job_id)
        endpoint = self.system.endpoints.get(job_id) if job_id is not None else None
        if endpoint is None:
            self._record(now, "corrupt-status skipped (no live endpoint)")
            return
        bad = {"model_r2": 0.99}
        power = float(endpoint.nodes * 200.0)
        if event.kind == "nan":
            bad.update(model_a=math.nan, model_b=math.nan, model_c=math.nan)
        elif event.kind == "inf":
            bad.update(model_a=math.inf, model_b=-math.inf, model_c=math.inf)
        elif event.kind == "nonphysical":
            # T rising with P: budgeting on this would starve the job hardest
            # exactly when power is plentiful.
            bad.update(model_a=0.0, model_b=0.05, model_c=0.1)
        elif event.kind == "nan-power":
            bad = {}
            power = math.nan
        msg = StatusMessage(
            job_id=job_id,
            timestamp=now,
            epoch_count=0,
            measured_power=power,
            applied_cap=200.0,
            **bad,
        )
        endpoint.link.send_up(msg, now)
        self._record(now, f"corrupt-status job={job_id} kind={event.kind}")
        self._record_victim(now, "corrupt-status", job_id)

    # ----------------------------------------------- rogue-endpoint faults

    def _fire_rogue(
        self, event: FaultEvent, now: float, label: str, detail: str,
        corrupt: Callable[[str, object], Callable[[], None] | None],
    ) -> None:
        """The steps every rogue-endpoint fault shares.

        Pick a fresh victim; ``corrupt(job_id, endpoint)`` sets the fault's
        state and returns what clears it (None: skip the job, before touching
        it).  Then mark the job rogue, log ``detail`` and the victim, and
        defer the heal, which unmarks the job and runs the undo.
        """
        job_id = self._pick_fresh_job(event.job_id)
        endpoint = self.system.endpoints.get(job_id) if job_id is not None else None
        undo = corrupt(job_id, endpoint) if endpoint is not None else None
        if undo is None:
            self._record(now, f"{label} skipped (no fresh endpoint)")
            return
        self._rogued.add(job_id)
        self._record(now, f"{label} job={job_id} {detail}")
        self._record_victim(now, label, job_id, event.duration)
        if math.isfinite(event.duration):

            def heal() -> None:
                self._rogued.discard(job_id)
                undo()

            self._defer(now + event.duration, f"{label} end job={job_id}", heal)

    def _fire_byzantine_model(self, event: ByzantineModel, now: float) -> None:
        """Decouple a job's shipped model coefficients from its true curve.

        The endpoint's ``forged`` fields, a fixed fake fit that passes every
        syntactic check the manager applies (finite, monotone decreasing,
        positive t_min, high R²) but describes a different machine, replace
        its own fit's.  An endpoint-process restart builds a fresh
        :class:`JobTierEndpoint` without them — the watchdog heals the lie,
        like any process-local corruption.
        """

        def corrupt(job_id, endpoint):
            job = self.system.cluster.running.get(job_id)
            if job is None:
                return None
            truth = job.job_type.truth
            if event.mode == "flat":
                # Claims power-insensitivity *and* a faster-than-possible
                # pace: the budgeter starves it to the floor, where its true
                # (much slower) progress contradicts the shipped curve.
                fake = QuadraticPowerModel.from_anchors(
                    truth.t_min * 0.5, 1.01, P_NODE_MIN, P_NODE_MAX
                )
            else:  # "steep": claims extreme sensitivity, grabbing budget.
                fake = QuadraticPowerModel.from_anchors(
                    truth.t_min, 4.0, P_NODE_MIN, P_NODE_MAX
                )
            endpoint.forged = {
                "model_a": fake.a,
                "model_b": fake.b,
                "model_c": fake.c,
                "model_r2": 0.97,
            }
            return lambda: setattr(endpoint, "forged", None)

        self._fire_rogue(event, now, "byzantine-model", f"mode={event.mode}", corrupt)

    def _fire_stuck_actuator(self, event: StuckActuator, now: float) -> None:
        """Make a job's platform cap writes silently no-op.

        ``stuck`` is set on the job's GEOPM endpoint object (owned by the
        running job, i.e. the *platform* side), so it survives endpoint
        process restarts — a wedged RAPL register does not care which
        process talks to it.  It dies with the job (requeue onto new nodes
        is new hardware).
        """

        def corrupt(job_id, endpoint):
            geopm = endpoint.geopm
            if event.release:
                # Fail open first: the register wedges at the hardware
                # maximum, so the job draws its full demand regardless of
                # future caps.
                geopm.write_policy(
                    AgentPolicy(power_cap_node=P_NODE_MAX, issued_at=now)
                )
            geopm.stuck = True

            def undo() -> None:
                geopm.stuck = False
                live = self.system.endpoints.get(job_id)
                if live is not None and live.geopm is geopm:
                    # Re-assert the most recently dispatched cap: the healed
                    # actuator applies what the control plane last asked for.
                    geopm.write_policy(
                        AgentPolicy(
                            power_cap_node=live.current_cap,
                            issued_at=now + event.duration,
                        )
                    )

            return undo

        self._fire_rogue(
            event, now, "stuck-actuator",
            f"release={event.release} duration={event.duration:.1f}", corrupt,
        )

    def _fire_meter_drift(self, event: MeterDrift, now: float) -> None:
        """Bias the power samples a job's endpoint reads from its agents.

        Affects only the job's *self-reported* telemetry (status messages
        upward); the facility's out-of-band node metering is untouched —
        the contrast the audit layer keys on.  Like ``stuck``, ``drift``
        lives on the platform-side GEOPM endpoint object.
        """

        def corrupt(job_id, endpoint):
            geopm = endpoint.geopm
            geopm.drift = (now, event.factor_rate, event.offset_rate)
            return lambda: setattr(geopm, "drift", None)

        self._fire_rogue(
            event, now, "meter-drift",
            f"factor_rate={event.factor_rate:+.4f} "
            f"offset_rate={event.offset_rate:+.3f} duration={event.duration:.1f}",
            corrupt,
        )

    def _refuse_observed(self, event: PartitionStart | PartitionEnd, now: float) -> None:
        # Observational records emitted by the reliable-messaging layer;
        # scheduling one is a category error, not a silent no-op.
        raise TypeError(
            f"{type(event).__name__} is an observed record, not a schedulable "
            "fault; inject NetworkPartition instead"
        )

    #: Fault type -> the method that fires it.
    _HANDLERS = {
        NodeCrash: _fire_node_crash,
        HeadNodeCrash: _fire_head_crash,
        HeadNodeRestart: _fire_head_restart,
        EndpointCrash: _fire_endpoint_crash,
        CorruptStatus: _fire_corrupt_status,
        ByzantineModel: _fire_byzantine_model,
        StuckActuator: _fire_stuck_actuator,
        MeterDrift: _fire_meter_drift,
        PartitionStart: _refuse_observed,
        PartitionEnd: _refuse_observed,
        **dict.fromkeys(_WINDOWS, _fire_window),
    }
