"""Fault-event vocabulary: immutable records of what breaks, and when.

Events are pure data — the :class:`~repro.faults.injector.FaultInjector`
interprets them against a running system.  Every event carries its fire
``time`` in simulated seconds; events with a ``duration`` are resolved
(link restored, meter back online, node rejoins) by the injector at
``time + duration``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "FaultEvent",
    "NodeCrash",
    "EndpointCrash",
    "HeadNodeCrash",
    "HeadNodeRestart",
    "LinkDegradation",
    "NetworkPartition",
    "PartitionStart",
    "PartitionEnd",
    "MeterOutage",
    "TargetOutage",
    "CorruptStatus",
    "ByzantineModel",
    "StuckActuator",
    "MeterDrift",
    "FeederLoss",
    "ThermalDerate",
    "DemandResponseEmergency",
]

#: Corruption modes a :class:`CorruptStatus` event can inject.
CORRUPTION_KINDS = ("nan", "inf", "nonphysical", "nan-power")

#: Lying strategies a :class:`ByzantineModel` event can adopt.
BYZANTINE_MODES = ("flat", "steep")


@dataclass(frozen=True)
class FaultEvent:
    """Base class: something goes wrong at simulated time ``time``."""

    time: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0:
            raise ValueError(f"event time must be finite and ≥ 0, got {self.time}")
        # The window and magnitude fields several classes share, checked once
        # here: ``not value > 0`` also rejects NaN, whose window never closes.
        for name in ("duration", "down_for"):
            value = getattr(self, name, None)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        magnitude = getattr(self, "magnitude", None)
        if magnitude is not None and not 0.0 < magnitude < 1.0:
            raise ValueError(f"magnitude must be in (0, 1), got {magnitude}")


@dataclass(frozen=True)
class NodeCrash(FaultEvent):
    """A compute node dies; any job running on it is killed mid-run.

    The node rejoins the pool ``down_for`` seconds later (``inf`` = never).
    """

    node_id: int = 0
    down_for: float = 300.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.node_id < 0:
            raise ValueError(f"node_id must be ≥ 0, got {self.node_id}")


@dataclass(frozen=True)
class HeadNodeCrash(FaultEvent):
    """The cluster-tier (head node) process dies; compute nodes keep running.

    A supervisor restarts the head ``down_for`` seconds later (``inf`` =
    never; pair with an explicit :class:`HeadNodeRestart` instead).  What
    the restarted head remembers depends on whether the system was built
    with a checkpoint directory — see DESIGN.md §4d.
    """

    down_for: float = 60.0


@dataclass(frozen=True)
class HeadNodeRestart(FaultEvent):
    """Explicitly restart a downed head node (scripted supervisor action).

    A no-op (logged, skipped) if the head is already up — so schedules
    mixing a finite-``down_for`` crash with a scripted restart stay valid.
    """


@dataclass(frozen=True)
class EndpointCrash(FaultEvent):
    """A job's endpoint process dies; the job keeps running but goes silent.

    ``job_id`` of ``None`` targets the lexicographically-first job with a
    live endpoint at fire time (deterministic without naming jobs upfront).
    """

    job_id: str | None = None


@dataclass(frozen=True)
class LinkDegradation(FaultEvent):
    """A window of lossy and/or slow tier-to-tier links.

    ``job_id`` of ``None`` degrades every link — including links created
    while the window is open (a partition hits new connections too).
    """

    duration: float = 60.0
    drop_probability: float = 0.0
    extra_latency: float = 0.0
    job_id: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1), got {self.drop_probability}"
            )
        if not self.extra_latency >= 0:
            raise ValueError(f"extra_latency must be ≥ 0, got {self.extra_latency}")


@dataclass(frozen=True)
class NetworkPartition(FaultEvent):
    """A full partition: messages blackhole in both directions.

    Unlike :class:`LinkDegradation` (probabilistic loss), a partition drops
    *every* message for ``duration`` seconds — including over links created
    while the partition is open.  ``job_id`` of ``None`` cuts every link
    (head node unreachable from all jobs).
    """

    duration: float = 60.0
    job_id: str | None = None


@dataclass(frozen=True)
class PartitionStart(FaultEvent):
    """Observed (not scheduled): a reliable link declared its peer unreachable.

    Emitted by :class:`~repro.core.reliable.ReliableLink` when retransmits
    exhaust the partition threshold — the *detection* of sustained loss,
    whatever its cause.  Scheduling one in a FaultSchedule is an error; the
    injector refuses it.
    """

    link: str = ""


@dataclass(frozen=True)
class PartitionEnd(FaultEvent):
    """Observed (not scheduled): a partitioned reliable link heard an ack again."""

    link: str = ""
    outage_seconds: float = 0.0


@dataclass(frozen=True)
class MeterOutage(FaultEvent):
    """The facility power meter returns NaN for ``duration`` seconds."""

    duration: float = 60.0


@dataclass(frozen=True)
class TargetOutage(FaultEvent):
    """The cluster power-target feed returns NaN for ``duration`` seconds."""

    duration: float = 60.0


@dataclass(frozen=True)
class CorruptStatus(FaultEvent):
    """One poisoned StatusMessage is injected up a job's link.

    Kinds: ``nan``/``inf`` — non-finite model coefficients; ``nonphysical``
    — a curve claiming more power makes the job slower; ``nan-power`` — a
    non-finite measured power.  ``job_id`` of ``None`` targets the
    lexicographically-first job with a live endpoint.
    """

    job_id: str | None = None
    kind: str = "nan"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(
                f"kind must be one of {CORRUPTION_KINDS}, got {self.kind!r}"
            )


@dataclass(frozen=True)
class ByzantineModel(FaultEvent):
    """A job endpoint ships model coefficients decoupled from its true curve.

    The shipped fit passes every syntactic check (finite, monotone, high
    R²) but describes a different machine: ``"flat"`` claims the job is
    power-insensitive *and* faster than physically possible (so the
    budgeter starves it to the floor and its claimed progress rate is a
    lie); ``"steep"`` claims extreme sensitivity (grabbing budget from
    honest jobs).  ``job_id`` of ``None`` targets the live endpoint with
    the most remaining work not already carrying a rogue fault.  The lie ends after
    ``duration`` seconds (``inf`` = never) or when the endpoint process
    is restarted.
    """

    job_id: str | None = None
    mode: str = "flat"
    duration: float = math.inf

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in BYZANTINE_MODES:
            raise ValueError(
                f"mode must be one of {BYZANTINE_MODES}, got {self.mode!r}"
            )


@dataclass(frozen=True)
class StuckActuator(FaultEvent):
    """A job's platform cap writes are silently ignored.

    With ``release`` True the actuator fails *open* first — the platform
    cap jumps to ``p_max`` and stays there (the RAPL-register-wedged
    worst case: the job draws its full demand regardless of dispatched
    caps).  With ``release`` False the cap freezes at its current value.
    The actuator heals after ``duration`` seconds (``inf`` = never), at
    which point the most recently dispatched cap is applied.
    """

    job_id: str | None = None
    release: bool = True
    duration: float = math.inf


@dataclass(frozen=True)
class FeederLoss(FaultEvent):
    """A utility feeder drops: available facility power falls by ``magnitude``.

    The feed scales to ``(1 - magnitude)`` of nominal for ``duration``
    seconds, then the feeder is re-energised.  Concurrent facility
    incidents compose multiplicatively (two 30 % losses leave 49 %).
    """

    magnitude: float = 0.3
    duration: float = 120.0


@dataclass(frozen=True)
class ThermalDerate(FaultEvent):
    """Cooling-plant derate: sustained capacity loss of ``magnitude``.

    Semantically a slow facility incident (condenser fouling, hot-day
    derate) — typically smaller in magnitude but longer in duration than a
    :class:`FeederLoss`.  The feed scales to ``(1 - magnitude)`` of nominal
    for ``duration`` seconds.
    """

    magnitude: float = 0.15
    duration: float = 300.0


@dataclass(frozen=True)
class DemandResponseEmergency(FaultEvent):
    """Grid demand-response emergency: a mandatory step-down of ``magnitude``.

    The sharpest of the facility incidents — the grid operator orders an
    immediate load reduction the facility must honour for ``duration``
    seconds or face disconnection.
    """

    magnitude: float = 0.4
    duration: float = 180.0


@dataclass(frozen=True)
class MeterDrift(FaultEvent):
    """A job's self-reported power meter develops a bias ramp.

    The power the endpoint reads (and reports upward in status messages)
    becomes ``power · max(0, 1 + factor_rate·Δt) + offset_rate·Δt`` with
    ``Δt`` seconds since the fault fired.  Negative rates under-report
    (the dangerous direction: dormancy triage under-reserves), positive
    rates over-report.  Out-of-band facility metering is unaffected —
    that contrast is what the audit layer detects.  Heals after
    ``duration`` seconds (``inf`` = never).
    """

    job_id: str | None = None
    factor_rate: float = -0.004
    offset_rate: float = 0.0
    duration: float = math.inf

    def __post_init__(self) -> None:
        super().__post_init__()
        if not math.isfinite(self.factor_rate):
            raise ValueError(
                f"factor_rate must be finite, got {self.factor_rate}")
        if not math.isfinite(self.offset_rate):
            raise ValueError(
                f"offset_rate must be finite, got {self.offset_rate}")
