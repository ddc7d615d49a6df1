"""``repro.telemetry`` — first-class observability for every tier.

The subsystem has three layers (DESIGN.md §8):

* a **metrics registry** (:mod:`~repro.telemetry.metrics`) — counters,
  gauges, fixed-bucket histograms; allocation-free no-ops when disabled;
* a **structured event/trace bus** (:mod:`~repro.telemetry.events`) —
  control rounds as span trees plus incident events, fanned to sinks
  (:mod:`~repro.telemetry.sinks`: bounded ring, JSONL trace writer);
* **exporters/consumers** — Prometheus text exposition over stdlib HTTP
  (:mod:`~repro.telemetry.prometheus`), the live ``anor top`` terminal view
  (:mod:`~repro.telemetry.top`), and ``anor trace`` offline export
  (:mod:`~repro.telemetry.schema` validates the format).

:class:`Telemetry` bundles one registry + one bus so instrumented code
takes a single handle.  ``NULL_TELEMETRY`` is the shared disabled instance:
the default everywhere, guaranteed overhead-free (golden traces stay
bit-identical with it installed, which `tests/test_telemetry_noop.py`
pins).
"""

from __future__ import annotations

from repro._lazy import lazy_exports
from repro.telemetry.events import NULL_BUS, EventBus
from repro.telemetry.metrics import NULL_REGISTRY, MetricsRegistry

#: Records the in-memory ring keeps (the oldest are evicted first); the
#: JSONL trace, when set, keeps every record.
RING_SIZE = 4096

_exports, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "events": ("INCIDENT",),
        "metrics": ("Counter", "Gauge", "Histogram", "DEFAULT_BUCKETS"),
        "sinks": ("RingBufferSink", "JsonlTraceSink"),
    },
)
__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "EventBus",
    "MetricsRegistry",
    "summarize_incidents",
    *_exports,
]


class Telemetry:
    """One registry + one event bus, shared by every tier of a system."""

    def __init__(
        self,
        *,
        enabled: bool = True,
        trace_path: str | None = None,
    ) -> None:
        self.enabled = bool(enabled)
        if not self.enabled:
            self.registry = NULL_REGISTRY
            self.bus = NULL_BUS
            self.ring = None
            self.trace_sink = None
            return
        # Only an enabled handle has sinks to fill.
        from repro.telemetry.sinks import JsonlTraceSink, RingBufferSink

        self.registry = MetricsRegistry()
        self.bus = EventBus()
        self.ring = RingBufferSink(RING_SIZE)
        self.bus.add_sink(self.ring)
        self.trace_sink = None
        if trace_path is not None:
            self.trace_sink = JsonlTraceSink(trace_path)
            self.bus.add_sink(self.trace_sink)

    # Convenience pass-throughs so call sites read naturally.
    def incident(self, category: str, t: float, **attrs) -> None:
        self.bus.incident(category, t, **attrs)

    def event(self, name: str, t: float, **attrs) -> None:
        self.bus.event(name, t, **attrs)

    def incidents(self) -> list[dict]:
        return self.ring.incidents() if self.ring is not None else []

    @property
    def incident_counts(self) -> dict[str, int]:
        return dict(self.bus.incident_counts)

    def flush(self) -> None:
        """Push buffered records to disk without closing (idempotent)."""
        if self.trace_sink is not None:
            self.trace_sink.flush()

    def close(self) -> None:
        """Flush and close any file-backed sinks (idempotent)."""
        if self.trace_sink is not None:
            self.trace_sink.close()


#: The shared disabled instance — the default ``telemetry=`` everywhere.
NULL_TELEMETRY = Telemetry(enabled=False)


def summarize_incidents(counts: dict[str, int]) -> list[str]:
    """Render per-category incident totals as aligned table lines."""
    if not counts:
        return ["  (none)"]
    width = max(len(c) for c in counts)
    return [
        f"  {category:<{width}}  x{count}"
        for category, count in sorted(counts.items())
    ]
