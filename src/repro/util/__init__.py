"""Shared utilities: deterministic RNG plumbing, simulation clock, math helpers.

Every stochastic component in this package draws randomness from an explicit
:class:`numpy.random.Generator`, usually derived through :func:`spawn_rng`
so that independent subsystems get independent, reproducible streams.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "rng": ("derive_rng", "ensure_rng", "spawn_rng"),
        "clock": ("SimClock",),
        "maths": ("bisect_scalar", "clamp", "monotone_decreasing", "weighted_percentile"),
        "stats": ("RunningStats", "confidence_interval_95", "percentile"),
    },
)


def record(cls: type) -> type:
    """Class decorator for a ``typing.NamedTuple`` record of the control
    plane: it equals only a record of its own class.

    A tuple compares by its items alone, so without this a
    ``GoodbyeMessage("j", 1.0)`` would equal an ``Envelope(…)`` or a plain
    tuple holding the same two values.  The hash stays the tuple's.
    """
    cls.__eq__ = lambda self, other: type(other) is type(self) and tuple.__eq__(self, other)
    cls.__ne__ = lambda self, other: type(other) is not type(self) or tuple.__ne__(self, other)
    cls.__hash__ = tuple.__hash__
    return cls
