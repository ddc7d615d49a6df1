"""Fault schedules: ordered, replayable event lists.

A :class:`FaultSchedule` is immutable once built; the same schedule driven
against the same seeded system produces a bit-identical fault log.  Three
ways to build one:

* hand-script events (tests pin exact scenarios);
* :meth:`FaultSchedule.standard_load` — the acceptance load (1 node crash,
  1 endpoint crash, 5 % link drop, one 60 s meter outage, one corrupt
  status) scaled to a run's duration;
* :meth:`FaultSchedule.random` — Poisson arrivals from a seed, one stream
  per event template of a mix (a mapping from template to rate), so
  robustness properties can be swept over many fault mixes.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace
from typing import Callable, Iterable, Iterator, Mapping

from repro.faults.events import (
    BYZANTINE_MODES,
    CORRUPTION_KINDS,
    ByzantineModel,
    CorruptStatus,
    DemandResponseEmergency,
    EndpointCrash,
    FaultEvent,
    FeederLoss,
    HeadNodeCrash,
    LinkDegradation,
    MeterDrift,
    MeterOutage,
    NodeCrash,
    StuckActuator,
    TargetOutage,
    ThermalDerate,
)
from repro.util.rng import Seedlike, ensure_rng

__all__ = ["FaultSchedule"]

#: The standard load's link loss, meter outage (s) and node downtime (a
#: fraction of the run).
STANDARD_DROP = 0.05
STANDARD_METER_OUTAGE = 60.0
STANDARD_NODE_DOWN = 0.25


def _nothing(rng, template, num_nodes) -> dict:
    return {}


def _pick(rng, choices: tuple) -> str:
    return choices[int(rng.integers(0, len(choices)))]


#: The classes :meth:`FaultSchedule.random` draws, in draw order, and the
#: fields each arrival draws: ``(rng, template, num_nodes) -> fields``.
_DRAWN: dict[type, Callable[..., dict]] = {
    NodeCrash: lambda rng, t, n: {"node_id": int(rng.integers(0, n))},
    EndpointCrash: _nothing,
    HeadNodeCrash: _nothing,
    LinkDegradation: _nothing,
    MeterOutage: _nothing,
    TargetOutage: _nothing,
    CorruptStatus: lambda rng, t, n: {"kind": _pick(rng, CORRUPTION_KINDS)},
    ByzantineModel: lambda rng, t, n: {"mode": _pick(rng, BYZANTINE_MODES)},
    StuckActuator: _nothing,
    MeterDrift: lambda rng, t, n: {
        "factor_rate": (1.0 if rng.random() < 0.5 else -1.0) * abs(t.factor_rate)
    },
    FeederLoss: _nothing,
    ThermalDerate: _nothing,
    DemandResponseEmergency: _nothing,
}


def _check_run(duration: float, num_nodes: int) -> None:
    # An infinite duration never ends a positive rate's arrival loop.
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration must be finite and positive, got {duration}")
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be ≥ 1, got {num_nodes}")


def _sort_key(event: FaultEvent) -> tuple:
    """Total order: fire time, then class name, then field values."""
    values = tuple(repr(getattr(event, f.name)) for f in fields(event))
    return (event.time, type(event).__name__, values)


class FaultSchedule:
    """An immutable, time-ordered sequence of fault events."""

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        collected = list(events)
        for event in collected:
            if not isinstance(event, FaultEvent):
                raise TypeError(f"not a FaultEvent: {event!r}")
        self.events: tuple[FaultEvent, ...] = tuple(sorted(collected, key=_sort_key))

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultSchedule) and self.events == other.events

    def __repr__(self) -> str:
        return f"FaultSchedule({list(self.events)!r})"

    def extended(self, extra: Iterable[FaultEvent]) -> "FaultSchedule":
        """A new schedule with ``extra`` events merged in."""
        return FaultSchedule((*self.events, *extra))

    # ------------------------------------------------------------- builders

    @classmethod
    def standard_load(cls, duration: float, *, num_nodes: int = 16) -> "FaultSchedule":
        """The acceptance-criteria fault load for a run of ``duration`` s.

        One node crash at 25 % of the run (down for ``STANDARD_NODE_DOWN``
        of the run), one endpoint crash at 40 %, ``STANDARD_DROP`` link loss
        across the whole run, one corrupt status at 50 %, and one
        ``STANDARD_METER_OUTAGE``-second meter outage at 60 %.
        """
        _check_run(duration, num_nodes)
        return cls(
            [
                LinkDegradation(
                    time=0.0, duration=duration, drop_probability=STANDARD_DROP
                ),
                NodeCrash(
                    time=0.25 * duration,
                    node_id=num_nodes // 2,
                    down_for=max(STANDARD_NODE_DOWN * duration, 1.0),
                ),
                EndpointCrash(time=0.40 * duration),
                CorruptStatus(time=0.50 * duration, kind="nan"),
                MeterOutage(time=0.60 * duration, duration=STANDARD_METER_OUTAGE),
            ]
        )

    @classmethod
    def random(
        cls,
        duration: float,
        *,
        seed: Seedlike,
        num_nodes: int = 16,
        rates: Mapping[FaultEvent, float],
    ) -> "FaultSchedule":
        """Draw a schedule from Poisson arrivals per event template.

        ``rates`` maps a template event to its rate in events per second of
        simulated time (e.g. ``1/600`` is one expected event per ten
        minutes).  Each arrival is the template at the arrival time, with
        the fields :data:`_DRAWN` lists for its class drawn too; every other
        field is the template's.  Templates draw class by class in
        :data:`_DRAWN`'s order, whatever the mapping's order, and a zero
        rate draws nothing from the RNG, so adding a class to a mix leaves
        the other classes' draws where they were.  The draw happens here,
        once — the resulting schedule is fully scripted, so replaying it is
        exact.
        """
        _check_run(duration, num_nodes)
        order = list(_DRAWN)
        for template, rate in rates.items():
            if type(template) not in _DRAWN:
                raise TypeError(f"not a template random draws: {template!r}")
            # A NaN rate would consume a draw and shift every later class; an
            # infinite one makes every gap 0.0 and the arrival loop endless.
            if not 0.0 <= rate < math.inf:
                raise ValueError(
                    f"{type(template).__name__} rate must be finite and ≥ 0, "
                    f"got {rate}"
                )
        rng = ensure_rng(seed)
        events: list[FaultEvent] = []
        for template, rate in sorted(
            rates.items(), key=lambda item: order.index(type(item[0]))
        ):
            if rate == 0.0:
                continue
            times = []
            t = float(rng.exponential(1.0 / rate))
            while t < duration:
                times.append(t)
                t += float(rng.exponential(1.0 / rate))
            draw = _DRAWN[type(template)]
            for t in times:
                events.append(replace(template, time=t, **draw(rng, template, num_nodes)))
        return cls(events)

    # -------------------------------------------------------------- queries

    def events_of(self, *types: type) -> list[FaultEvent]:
        """Events matching any of the given classes, in schedule order."""
        return [e for e in self.events if isinstance(e, types)]

    def describe(self) -> str:
        """One line per event — the scripted half of the injector's log."""
        return "\n".join(
            f"t={e.time:10.1f} scheduled {type(e).__name__}" for e in self.events
        )
