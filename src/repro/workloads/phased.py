"""Multi-phase job types (paper §8).

"Some jobs may consist of multiple power-sensitivity profiles through the
job's lifecycle."  A :class:`PhasedJobType` partitions a job's epochs into
consecutive phases, each with its own power sensitivity and power demand —
e.g. a simulation phase (compute-bound, sensitive) followed by an in-situ
analysis phase (memory-bound, insensitive).  The single precharacterized
``truth`` model of the base class then describes only the *average*
behaviour, which is exactly the modeling gap the paper's future work calls
out; the online modeler's drift detection (``detect_drift=True``) closes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.modeling.quadratic import QuadraticPowerModel
from repro.workloads.nas import JobType

__all__ = ["PhaseSpec", "PhasedJobType", "make_two_phase_type"]


@dataclass(frozen=True)
class PhaseSpec:
    """One lifecycle phase: a fraction of the job's epochs with its own curve."""

    fraction: float  # share of the job's epochs, in (0, 1]
    sensitivity: float  # relative time at the minimum cap, ≥ 1
    p_demand: float  # per-node power draw when unconstrained

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.sensitivity < 1.0:
            raise ValueError(f"sensitivity must be ≥ 1, got {self.sensitivity}")


@dataclass(frozen=True)
class PhasedJobType(JobType):
    """A job type whose power-performance profile changes across phases.

    The inherited scalar ``sensitivity``/``p_demand`` describe the
    epoch-weighted average (what offline characterization would see); the
    phase list drives the emulator's actual behaviour.
    """

    phases: tuple[PhaseSpec, ...] = ()
    _phase_models: tuple[QuadraticPowerModel, ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    #: Where each phase ends, as an epoch-progress fraction, up to the first
    #: bound equal to the last: the last phase runs from there on.
    _phase_edges: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    #: ``(a, b, c, p_demand)`` rows, a column per phase: the emulator's
    #: window kernel reads a phased rank's constants from here.
    _phase_table: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.phases:
            raise ValueError(f"{self.name}: a phased type needs ≥ 1 phase")
        total = sum(p.fraction for p in self.phases)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"{self.name}: phase fractions must sum to 1, got {total}"
            )
        for p in self.phases:
            if not self.p_min < p.p_demand <= self.p_max:
                raise ValueError(
                    f"{self.name}: phase p_demand {p.p_demand} outside range"
                )
        tau_base = self.t_uncapped / self.epochs
        models = tuple(
            QuadraticPowerModel.from_anchors(
                t_at_max=tau_base,
                sensitivity=p.sensitivity,
                p_min=self.p_min,
                p_max=p.p_demand,
            )
            for p in self.phases
        )
        bounds = np.cumsum([p.fraction for p in self.phases])
        edges = bounds[: int(np.searchsorted(bounds, bounds[-1]))]
        table = [[m.a, m.b, m.c, p.p_demand] for m, p in zip(models, self.phases)]
        object.__setattr__(self, "_phase_models", models)
        object.__setattr__(self, "_phase_edges", edges)
        object.__setattr__(self, "_phase_table", np.array(table).T)

    # ----------------------------------------------------------- phase logic

    def phase_index(self, progress):
        """Which phase a job is in at epoch-progress fraction ``progress``
        (a float, or an array of them)."""
        return np.searchsorted(self._phase_edges, np.clip(progress, 0.0, 1.0), side="right")

    def phase_constants(self, progress: np.ndarray) -> np.ndarray:
        """``(a, b, c, p_demand)`` rows of the phase each of ``progress`` is in."""
        return self._phase_table[:, self.phase_index(progress)]

    def time_per_epoch_at(self, p_cap: float, progress: float) -> float:
        """True seconds/epoch at cap ``p_cap`` while at ``progress`` ∈ [0, 1]."""
        i = self.phase_index(progress)
        phase = self.phases[i]
        cap = float(np.clip(p_cap, self.p_min, phase.p_demand))
        return float(self._phase_models[i].time_per_epoch(cap))

    def power_demand_at(self, progress: float) -> float:
        """Per-node unconstrained draw during the current phase."""
        return self.phases[self.phase_index(progress)].p_demand


def make_two_phase_type(
    name: str = "px",
    *,
    nodes: int = 2,
    epochs: int = 200,
    t_uncapped: float = 300.0,
    first: PhaseSpec = PhaseSpec(0.5, 1.7, 272.0),
    second: PhaseSpec = PhaseSpec(0.5, 1.1, 235.0),
    noise: float = 0.012,
) -> PhasedJobType:
    """A simulation+analysis style job: sensitive first half, flat second."""
    avg_sens = first.fraction * first.sensitivity + second.fraction * second.sensitivity
    avg_demand = first.fraction * first.p_demand + second.fraction * second.p_demand
    return PhasedJobType(
        name=name,
        nas_name=f"{name}.D.x",
        nodes=nodes,
        epochs=epochs,
        t_uncapped=t_uncapped,
        sensitivity=avg_sens,
        p_demand=avg_demand,
        noise=noise,
        phases=(first, second),
    )
