"""Job-type forecasting from submission metadata (paper §2).

The paper cites queue-metadata power prediction (Patel et al. [17], Saillant
et al. [20]) and positions ANOR as *supplementing* forecasting "by
responding to unknown or changing applications while they execute".  This
module supplies the forecasting half of that story: a Naive-Bayes-style
classifier over categorical submission metadata (user, account, executable
name, node count, requested walltime bucket) that predicts the job type —
i.e., produces the ``claimed_type`` the cluster tier's classifier consumes.
Misprediction here is exactly the misclassification ANOR's feedback loop
then repairs (Figs. 6–8, 10).

Not to be confused with :mod:`repro.plan.forecast`, which forecasts the
*power target*, not job types; the two modules share nothing but the word.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.util.rng import ensure_rng

__all__ = [
    "SubmissionMetadata",
    "MetadataModel",
    "NaiveBayesTypeForecaster",
    "synthesize_submissions",
]

#: Metadata fields the forecaster conditions on.
FIELDS = ("user", "account", "executable", "nodes_bucket", "walltime_bucket")


@dataclass(frozen=True)
class SubmissionMetadata:
    """What the batch system knows about a job before it runs."""

    user: str
    account: str
    executable: str
    nodes: int
    walltime_request: float  # seconds

    def features(self) -> dict[str, str]:
        """Categorical features; numeric fields are bucketed."""
        return {
            "user": self.user,
            "account": self.account,
            "executable": self.executable,
            "nodes_bucket": _bucket_nodes(self.nodes),
            "walltime_bucket": _bucket_walltime(self.walltime_request),
        }


def _bucket_nodes(nodes: int) -> str:
    if nodes <= 1:
        return "1"
    if nodes <= 2:
        return "2"
    if nodes <= 8:
        return "3-8"
    return "9+"


def _bucket_walltime(seconds: float) -> str:
    if seconds <= 60.0:
        return "<1m"
    if seconds <= 600.0:
        return "1-10m"
    if seconds <= 3600.0:
        return "10-60m"
    return ">1h"


@dataclass
class MetadataModel:
    """Per-type categorical likelihoods with Laplace smoothing."""

    type_counts: Counter = field(default_factory=Counter)
    # field -> type -> value -> count
    value_counts: dict = field(
        default_factory=lambda: {f: defaultdict(Counter) for f in FIELDS}
    )
    vocab: dict = field(default_factory=lambda: {f: set() for f in FIELDS})

    @property
    def total(self) -> int:
        return sum(self.type_counts.values())

    def log_posteriors(self, features: Mapping[str, str]) -> dict[str, float]:
        """Unnormalised log P(type | features) per known type."""
        if self.total == 0:
            raise ValueError("model has no training data")
        out: dict[str, float] = {}
        for type_name, n_type in self.type_counts.items():
            logp = math.log(n_type / self.total)
            for field_name in FIELDS:
                value = features[field_name]
                counts = self.value_counts[field_name][type_name]
                vocab_size = max(len(self.vocab[field_name]), 1)
                # Laplace smoothing keeps unseen values finite.
                likelihood = (counts[value] + 1.0) / (n_type + vocab_size)
                logp += math.log(likelihood)
            out[type_name] = logp
        return out


class NaiveBayesTypeForecaster:
    """Predicts a job's type from its submission metadata."""

    def __init__(self) -> None:
        self.model = MetadataModel()

    # -------------------------------------------------------------- training

    def fit(
        self, submissions: Iterable[tuple[SubmissionMetadata, str]]
    ) -> "NaiveBayesTypeForecaster":
        """Train on (metadata, true type) pairs; returns self."""
        for metadata, type_name in submissions:
            self.observe(metadata, type_name)
        return self

    def observe(self, metadata: SubmissionMetadata, type_name: str) -> None:
        """Online update with one labelled submission (e.g. after a job
        completes and its type is confirmed by the job tier)."""
        self.model.type_counts[type_name] += 1
        features = metadata.features()
        for field_name in FIELDS:
            value = features[field_name]
            self.model.value_counts[field_name][type_name][value] += 1
            self.model.vocab[field_name].add(value)

    # ------------------------------------------------------------ prediction

    def predict(self, metadata: SubmissionMetadata) -> str:
        """Most likely type."""
        posteriors = self.model.log_posteriors(metadata.features())
        return max(posteriors, key=posteriors.get)

    def predict_proba(self, metadata: SubmissionMetadata) -> dict[str, float]:
        """Normalised type probabilities."""
        logp = self.model.log_posteriors(metadata.features())
        peak = max(logp.values())
        weights = {k: math.exp(v - peak) for k, v in logp.items()}
        total = sum(weights.values())
        return {k: w / total for k, w in weights.items()}

    def confidence(self, metadata: SubmissionMetadata) -> float:
        """Probability of the predicted type — a gate for 'treat as unknown'."""
        return max(self.predict_proba(metadata).values())

    def accuracy(
        self, submissions: Sequence[tuple[SubmissionMetadata, str]]
    ) -> float:
        if not submissions:
            raise ValueError("no submissions to score")
        hits = sum(
            1 for metadata, truth in submissions if self.predict(metadata) == truth
        )
        return hits / len(submissions)


def synthesize_submissions(
    type_names: Sequence[str],
    count: int,
    *,
    seed: int | np.random.Generator | None = 0,
    users_per_type: int = 3,
    crossover: float = 0.1,
    walltime_by_type: Mapping[str, float] | None = None,
    nodes_by_type: Mapping[str, int] | None = None,
) -> list[tuple[SubmissionMetadata, str]]:
    """Synthetic labelled submission stream.

    Each type has a small pool of habitual users and a characteristic
    executable name; ``crossover`` is the probability a submission uses
    another type's user/account (what makes forecasting imperfect, as in
    real queue traces).
    """
    if not type_names:
        raise ValueError("need at least one type")
    if count < 1:
        raise ValueError(f"count must be ≥ 1, got {count}")
    if not 0.0 <= crossover <= 1.0:
        raise ValueError(f"crossover must be in [0, 1], got {crossover}")
    rng = ensure_rng(seed)
    out: list[tuple[SubmissionMetadata, str]] = []
    n_types = len(type_names)
    for _ in range(count):
        type_idx = int(rng.integers(n_types))
        type_name = type_names[type_idx]
        persona_idx = type_idx
        if rng.random() < crossover:
            persona_idx = int(rng.integers(n_types))
        persona = type_names[persona_idx]
        user = f"user-{persona}-{int(rng.integers(users_per_type))}"
        executable = (
            f"{type_name}.x" if rng.random() > crossover else f"run-{persona}.sh"
        )
        walltime = (
            walltime_by_type.get(type_name, 600.0)
            if walltime_by_type is not None
            else 600.0
        ) * float(rng.uniform(0.8, 1.5))
        nodes = (
            nodes_by_type.get(type_name, 2) if nodes_by_type is not None else 2
        )
        out.append(
            (
                SubmissionMetadata(
                    user=user,
                    account=f"acct-{persona}",
                    executable=executable,
                    nodes=nodes,
                    walltime_request=walltime,
                ),
                type_name,
            )
        )
    return out
