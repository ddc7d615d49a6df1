"""The closed sets of names an :class:`~repro.core.framework.AnorConfig`
chooses from.

Stated apart from the subsystems that act on them, so that checking a config
loads neither the shed ladder nor the forecasters (DESIGN.md §7, *Startup*).
"""

#: Shed classes a job may declare, most expendable first
#: (:mod:`repro.facility.shed`).
SHED_CLASSES = ("preemptible", "checkpointable", "protected")

#: Forecasters :func:`repro.plan.forecast.make_forecaster` builds.
FORECASTER_KINDS = ("auto", "schedule", "persistence", "ar1", "adversarial")
