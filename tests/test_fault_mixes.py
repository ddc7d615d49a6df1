"""What ``FaultSchedule.random`` draws from a fault mix.

A mix maps event templates to rates.  The digests pin the sha256 of
``repr(list(schedule))`` for the mixes runs draw from: the soak's (the
episodes of ``resilience --drill soak``), the feature matrix's base mix with
each feature addition at the random seeds of its two named cases (matrix
seeds 101 and 105), and one mix over all thirteen classes random draws,
with shapes off every default.  They were recorded from the keyword form
the template form replaced; a change that moves one moves a soak episode, a
matrix example or a drill, so re-record only on purpose.
"""

import hashlib
import math

import pytest

from repro.experiments.resilience import _NODES, SOAK_FAULTS
from repro.faults import (
    ByzantineModel,
    CorruptStatus,
    DemandResponseEmergency,
    EndpointCrash,
    FaultSchedule,
    FeederLoss,
    HeadNodeCrash,
    HeadNodeRestart,
    LinkDegradation,
    MeterDrift,
    MeterOutage,
    NetworkPartition,
    NodeCrash,
    PartitionEnd,
    PartitionStart,
    StuckActuator,
    TargetOutage,
    ThermalDerate,
)
from tests.test_feature_matrix import BASE_RATES, FEATURE_RATES

#: Every class ``random`` draws, at rates and shapes off their defaults.
ALL_CLASSES = {
    NodeCrash(time=0.0, down_for=200.0): 1 / 300.0,
    EndpointCrash(time=0.0): 1 / 350.0,
    HeadNodeCrash(time=0.0, down_for=45.0): 1 / 400.0,
    LinkDegradation(time=0.0, duration=75.0, drop_probability=0.1): 1 / 450.0,
    MeterOutage(time=0.0, duration=30.0): 1 / 500.0,
    TargetOutage(time=0.0, duration=30.0): 1 / 550.0,
    CorruptStatus(time=0.0): 1 / 250.0,
    ByzantineModel(time=0.0, duration=240.0): 1 / 300.0,
    StuckActuator(time=0.0, duration=240.0): 1 / 350.0,
    MeterDrift(time=0.0, factor_rate=0.002, duration=240.0): 1 / 200.0,
    FeederLoss(time=0.0, magnitude=0.25, duration=100.0): 1 / 600.0,
    ThermalDerate(time=0.0, magnitude=0.1, duration=400.0): 1 / 650.0,
    DemandResponseEmergency(time=0.0, magnitude=0.5, duration=200.0): 1 / 700.0,
}


def matrix_mix(*features):
    rates = dict(BASE_RATES)
    for feature in features:
        rates.update(FEATURE_RATES[feature])
    return rates


#: (duration, seed, num_nodes, mix) -> (events, digest).
PINS = [
    ((600.0, 7, _NODES, SOAK_FAULTS), 10,
     "f3f7f12af003c2a0d60057108dec056bc5ac9064dc74fc66cd414077d99c0f61"),
    ((600.0, 8, _NODES, SOAK_FAULTS), 13,
     "7778ea122fd5bc4d8888b8b3c1b83df68f28e5d847a371acddc140a7107e0098"),
    ((600.0, 9, _NODES, SOAK_FAULTS), 7,
     "57500a1e27a6a25865b7242e0e11c86ad2f3a7607d92ee98dddfc207ab42e189"),
    ((1200.0, 3138, 16, matrix_mix()), 27,
     "33d17d26f475e07b37c1c02b6d70b0eb38c869045198a17693a38267c263e4d6"),
    ((1200.0, 3262, 16, matrix_mix()), 24,
     "d6bac4d2cf392b726d1bc675ee14a5d127fa88605f1730f9a1403853331aefc4"),
    ((1200.0, 3138, 16, matrix_mix("durable")), 31,
     "934f1149ec2197cf8c790e74f056a8ecffe9a4b88b2ffc881c26a37cf53ddcbb"),
    ((1200.0, 3262, 16, matrix_mix("durable")), 28,
     "bfce8b779f82df666b1a56c55aa0e25c320efc782bf3b2ebe30d6b4e2c9ea990"),
    ((1200.0, 3138, 16, matrix_mix("shed")), 34,
     "aa082d1f458bbcf891f736b59fff274e9134d5cc01124d7e85cd75cda89a8597"),
    ((1200.0, 3262, 16, matrix_mix("shed")), 26,
     "d434cf5fb3480ef35d5584417d311eb68a989101ce9230f9347354ff7e42ebec"),
    ((1200.0, 3138, 16, matrix_mix("durable", "shed")), 38,
     "427a7bcc8964a5bf4e3ef0f449802ac0cc3b40b04957273fd1c8bf70364b20a9"),
    ((1200.0, 3262, 16, matrix_mix("durable", "shed")), 32,
     "115ee1d1af395ef528edd89fa414bf83eb8da6747832937c6f7c2eea0ae30bf7"),
    ((3600.0, 1, 8, ALL_CLASSES), 112,
     "d1055b4093cb2805d884874446490c3d5e28d74b54ce2a37eba47e5582e044d4"),
    ((3600.0, 2, 8, ALL_CLASSES), 122,
     "2398024a4e1cb3f944ad84fea0ffb177378760372e0c89c6bd25e3a34292dc45"),
    ((3600.0, 3, 8, ALL_CLASSES), 113,
     "a63fa545f468cc1a6de7d1b667b4d0c658421464c285ea2ca92d2cfb5c7c2cbb"),
]


def draw(duration, seed, num_nodes, rates):
    return FaultSchedule.random(duration, seed=seed, num_nodes=num_nodes, rates=rates)


@pytest.mark.parametrize("args, count, digest", PINS)
def test_draws_are_pinned(args, count, digest):
    schedule = draw(*args)
    assert len(schedule) == count
    assert hashlib.sha256(repr(list(schedule)).encode()).hexdigest() == digest


def test_mapping_order_does_not_move_a_draw():
    reversed_mix = dict(reversed(list(ALL_CLASSES.items())))
    assert draw(3600.0, 1, 8, reversed_mix) == draw(3600.0, 1, 8, ALL_CLASSES)


def test_arrivals_keep_every_undrawn_field_of_their_template():
    schedule = draw(3600.0, 2, 8, ALL_CLASSES)
    for template in ALL_CLASSES:
        arrivals = schedule.events_of(type(template))
        assert arrivals
        for event in arrivals:
            drawn = {"time", "node_id", "kind", "mode", "factor_rate"}
            for name in vars(template).keys() - drawn:
                assert getattr(event, name) == getattr(template, name)


@pytest.mark.parametrize("rate", [-0.1, math.nan, math.inf])
def test_a_rate_must_be_finite_and_nonnegative(rate):
    with pytest.raises(ValueError, match="MeterDrift rate"):
        draw(600.0, 0, 4, {NodeCrash(time=0.0): 1 / 60.0,
                           MeterDrift(time=0.0): rate})


@pytest.mark.parametrize("duration", [0.0, -5.0, math.nan, math.inf])
def test_the_duration_must_be_finite_and_positive(duration):
    with pytest.raises(ValueError, match="duration"):
        draw(duration, 0, 4, {NodeCrash(time=0.0): 1 / 60.0})


@pytest.mark.parametrize("template", [
    HeadNodeRestart(time=0.0),
    NetworkPartition(time=0.0),
    PartitionStart(time=0.0),
    PartitionEnd(time=0.0),
])
def test_a_template_random_does_not_draw_is_refused(template):
    with pytest.raises(TypeError, match=type(template).__name__):
        draw(600.0, 0, 4, {template: 1 / 60.0})
