"""Catalog of synthetic NAS Parallel Benchmark job types (paper §5.1, Fig. 3).

Each :class:`JobType` carries the *ground-truth* power-performance curve used
by the hardware emulator and the tabular simulator.  The control plane never
reads these curves directly — it learns them through characterization runs or
online epoch feedback, exactly as the paper's cluster does.

Calibration notes
-----------------
* Per-node cap range is 140–280 W: the test platform has two packages with a
  70 W floor and 140 W TDP each (§5.5, §6.1.1), stated here alone.
* ``sensitivity`` is the relative execution time at the minimum cap
  (Fig. 3's y-axis at 140 W).  EP is most sensitive, IS least, matching the
  roles those types play in the misclassification studies (§6.1.2).
* ``noise`` is the relative σ of per-epoch timing noise in the emulator;
  values are calibrated so characterization R² lands near the paper's
  reported scores (most ≥ 0.97; IS 0.92, MG 0.94, SP 0.84).
* IS and EP run for well under half a minute; §7.2 explains how their
  setup/teardown dominance perturbs cluster measurements, which is why the
  final schedules (Figs. 9–11) exclude them — we reproduce both the effect
  and the exclusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.modeling.quadratic import QuadraticPowerModel

__all__ = [
    "PACKAGE_MIN_POWER", "PACKAGE_TDP", "NODE_PACKAGES",
    "P_NODE_MIN",
    "P_NODE_MAX",
    "IDLE_NODE_POWER",
    "JobType",
    "NAS_TYPES",
    "get_job_type",
    "default_mix",
    "long_running_mix",
    "misclassification_trio",
]

#: RAPL actuation range of one CPU package (W), and packages per node (§5.5).
PACKAGE_MIN_POWER, PACKAGE_TDP, NODE_PACKAGES = 70.0, 140.0, 2
#: A node's enforceable CPU power cap range (W).
P_NODE_MIN, P_NODE_MAX = NODE_PACKAGES * PACKAGE_MIN_POWER, NODE_PACKAGES * PACKAGE_TDP
#: CPU power drawn by an idle node (also during job setup/teardown, §7.2):
#: what the emulated plant draws and what the cluster manager reserves per
#: idle node.
IDLE_NODE_POWER = 60.0


@dataclass(frozen=True)
class JobType:
    """Ground-truth description of one benchmark job type.

    Attributes
    ----------
    name:
        Short benchmark name (``"bt"`` … ``"sp"``).
    nas_name:
        Full paper-style identifier, e.g. ``"bt.D.x"``.
    nodes:
        Default compute-node count per instance in the cluster experiments.
    epochs:
        Main-loop iterations; one ``prof_epoch()`` call per iteration.
    t_uncapped:
        Compute time (s) at the maximum cap, excluding setup/teardown.
    sensitivity:
        Relative execution time at the minimum cap (≥ 1).
    p_demand:
        Per-node CPU power draw (W) when unconstrained; caps above this are
        not binding.
    noise:
        Relative σ of per-epoch execution-time noise.
    setup_time / teardown_time:
        Seconds spent at idle power before/after compute (batch-system and
        application setup; §7.2).
    """

    name: str
    nas_name: str
    nodes: int
    epochs: int
    t_uncapped: float
    sensitivity: float
    p_demand: float
    noise: float
    setup_time: float = 5.0
    teardown_time: float = 3.0
    p_min: float = P_NODE_MIN
    p_max: float = P_NODE_MAX
    #: Relative amplitude of the epoch-periodic power signature, in [0, 1).
    #: Real codes' draw oscillates within each main-loop iteration (compute
    #: vs. exchange phases); §8's automatic epoch detection exploits exactly
    #: that.  Zero (the default) keeps the paper-reproduction workloads
    #: unmodulated.
    power_wave: float = 0.0
    _truth: QuadraticPowerModel = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"{self.name}: nodes must be ≥ 1")
        if self.epochs < 1:
            raise ValueError(f"{self.name}: epochs must be ≥ 1")
        if not 0.0 <= self.power_wave < 1.0:  # from 1 on, the trough asks ≤ 0 W
            raise ValueError(f"{self.name}: power_wave {self.power_wave} outside [0, 1)")
        if not self.p_min < self.p_demand <= self.p_max:
            raise ValueError(
                f"{self.name}: p_demand {self.p_demand} outside ({self.p_min}, {self.p_max}]"
            )
        truth = QuadraticPowerModel.from_anchors(
            t_at_max=self.t_uncapped / self.epochs,
            sensitivity=self.sensitivity,
            p_min=self.p_min,
            # The curve flattens where the cap stops binding.
            p_max=self.p_demand,
        )
        object.__setattr__(self, "_truth", truth)

    # ------------------------------------------------------------- the truth

    @property
    def truth(self) -> QuadraticPowerModel:
        """Ground-truth time-per-epoch model (valid caps clamp to p_demand)."""
        return self._truth

    def time_per_epoch(self, p_cap: float | np.ndarray) -> float | np.ndarray:
        """True seconds per epoch under per-node cap ``p_cap``."""
        if isinstance(p_cap, (int, float)):
            # Scalar fast path: np.clip's array machinery costs far more
            # than the algebra.
            p = self.p_min if p_cap < self.p_min else (
                self.p_demand if p_cap > self.p_demand else p_cap
            )
            return self._truth.time_per_epoch(float(p))
        return self._truth.time_per_epoch(np.clip(p_cap, self.p_min, self.p_demand))

    def compute_time(self, p_cap: float) -> float:
        """True compute seconds (epochs × time/epoch) under cap ``p_cap``."""
        return self.epochs * float(self.time_per_epoch(float(p_cap)))

    def total_time(self, p_cap: float) -> float:
        """Wall-clock occupancy including setup and teardown."""
        return self.setup_time + self.compute_time(p_cap) + self.teardown_time

    def relative_time(self, p_cap: float | np.ndarray) -> float | np.ndarray:
        """Execution time relative to the max-cap time (Fig. 3's y-axis)."""
        return self.time_per_epoch(p_cap) / self.time_per_epoch(self.p_max)

    def slowdown(self, p_cap: float) -> float:
        """Fractional compute slowdown vs. running uncapped (≥ 0)."""
        return float(self.relative_time(float(p_cap))) - 1.0

    def power_at_cap(self, p_cap: float) -> float:
        """CPU power (W/node) actually drawn under cap ``p_cap``."""
        return float(min(max(p_cap, self.p_min), self.p_demand))

    # ------------------------------------------------------------ convenience

    @property
    def t_min(self) -> float:
        """Fastest total time (uncapped), the QoS reference T_min (§5.2)."""
        return self.total_time(self.p_max)

    def scaled_nodes(self, factor: int) -> "JobType":
        """Same job type at ``factor``× the node count (Fig. 11 uses 25×)."""
        if factor < 1:
            raise ValueError(f"factor must be ≥ 1, got {factor}")
        return replace(self, nodes=self.nodes * factor)

    def with_nodes(self, nodes: int) -> "JobType":
        """Same job type pinned to an explicit node count (Fig. 5 mixes):
        the type itself at its own count."""
        return self if nodes == self.nodes else replace(self, nodes=nodes)


def _catalog() -> dict[str, JobType]:
    spec = [
        # name nodes epochs t_unc  sens  p_dem noise
        ("bt", 2, 200, 300.0, 1.65, 272.0, 0.012),
        ("cg", 1, 75, 180.0, 1.30, 250.0, 0.011),
        ("ep", 1, 16, 25.0, 1.80, 278.0, 0.010),
        ("ft", 2, 40, 120.0, 1.45, 264.0, 0.011),
        ("is", 1, 10, 20.0, 1.08, 235.0, 0.006),
        ("lu", 1, 250, 280.0, 1.55, 268.0, 0.012),
        ("mg", 1, 50, 90.0, 1.22, 246.0, 0.014),
        ("sp", 2, 400, 320.0, 1.12, 240.0, 0.018),
    ]
    return {
        name: JobType(
            name=name,
            nas_name=f"{name}.D.x",
            nodes=nodes,
            epochs=epochs,
            t_uncapped=t_unc,
            sensitivity=sens,
            p_demand=p_dem,
            noise=noise,
        )
        for name, nodes, epochs, t_unc, sens, p_dem, noise in spec
    }


#: All eight NPB job types, keyed by short name.
NAS_TYPES: dict[str, JobType] = _catalog()


def get_job_type(name: str) -> JobType:
    """Look up a job type by short (``"bt"``) or full (``"bt.D.x"``) name."""
    key = name.split(".")[0].lower()
    try:
        return NAS_TYPES[key]
    except KeyError:
        raise KeyError(
            f"unknown job type {name!r}; known: {sorted(NAS_TYPES)}"
        ) from None


def default_mix() -> list[JobType]:
    """All eight job types (Fig. 4's one-of-each scenario)."""
    return [NAS_TYPES[k] for k in sorted(NAS_TYPES)]


def long_running_mix() -> list[JobType]:
    """The six minutes-or-longer types used in Figs. 9–11 (no IS/EP, §7.2)."""
    return [NAS_TYPES[k] for k in sorted(NAS_TYPES) if k not in ("is", "ep")]


def misclassification_trio() -> tuple[JobType, JobType, JobType]:
    """(low, medium, high) power-sensitivity types of Fig. 5: IS, FT, EP."""
    return NAS_TYPES["is"], NAS_TYPES["ft"], NAS_TYPES["ep"]
