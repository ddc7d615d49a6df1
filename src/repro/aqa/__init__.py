"""AQA: the Adaptive policy with QoS Assurance (Zhang et al. [29], paper §4.4).

The paper bases its demand-response bidder, job scheduler, and power budgeter
on AQA.  This package implements the pieces ANOR uses:

* :mod:`repro.aqa.qos` — probabilistic QoS constraints (Q ≤ 5 at 90 %).
* :mod:`repro.aqa.regulation` — regulation-signal generators y(t) ∈ [−1, 1].
* :mod:`repro.aqa.queues` — per-job-type work queues with node-share weights.
* :mod:`repro.aqa.scheduler` — weight-proportional node allocation.
* :mod:`repro.aqa.bidder` — (average power, reserve) bid search under QoS
  and power-tracking constraints.
* :mod:`repro.aqa.training` — queue-weight tuning over simulated scenarios,
  including random sampling of properties for unknown job types (§4.4.2).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "qos": ("QoSConstraint", "generate_queue_trace", "qos_degradation"),
        "regulation": (
            "BoundedRandomWalkSignal", "RegulationSignal", "SinusoidSignal",
            "TabulatedSignal",
        ),
        "queues": ("QueueSet", "WorkQueue"),
        "scheduler": ("WeightedScheduler",),
        "bidder": ("Bid", "BidEvaluation", "DemandResponseBidder"),
        "session": ("DemandResponseSession", "HourMetrics", "HourRecord"),
        "training": ("TrainingResult", "train_queue_weights", "sample_unknown_type"),
    },
)
