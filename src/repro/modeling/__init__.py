"""Job power-performance modeling (the ANOR job tier's analytical core).

The paper models each job's time-per-epoch as a quadratic in the applied CPU
power cap, ``T = A·P² + B·P + C`` (§4.2), refit online whenever at least 10
new epochs have been observed.  Jobs with no model yet use a *default model*
chosen by policy (§6.1.2 evaluates the least- and most-sensitive choices).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "quadratic": ("FitResult", "QuadraticPowerModel"),
        "online": ("EpochHistory", "EpochSample", "OnlineModeler"),
        "default_models": (
            "DefaultModelPolicy", "LeastSensitivePolicy", "MostSensitivePolicy",
            "NamedTypePolicy", "RandomKnownTypePolicy",
        ),
        "classifier": ("JobClassifier", "Misclassification"),
    },
)
