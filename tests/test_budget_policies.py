"""Tests for the three power budgeters (paper §4.4.3), incl. invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.budget.base import BudgetAllocation, JobBudgetRequest
from repro.budget.even_power import EvenPowerBudgeter
from repro.budget.even_slowdown import SOLVE_TOL, EvenSlowdownBudgeter, _Solve
from repro.budget.uniform import UniformCapBudgeter
from repro.modeling.quadratic import QuadraticPowerModel
from repro.workloads.nas import NAS_TYPES

from tests import budget_reference


def request(job_id, nodes, sensitivity, *, p_max=280.0):
    model = QuadraticPowerModel.from_anchors(2.0, sensitivity, 140.0, p_max)
    return JobBudgetRequest(
        job_id=job_id, nodes=nodes, model=model, p_min=140.0, p_max=p_max
    )


JOBS = [request("low", 2, 1.1), request("mid", 1, 1.4), request("high", 2, 1.9)]
TOTAL_MAX = sum(j.p_max * j.nodes for j in JOBS)
TOTAL_MIN = sum(j.p_min * j.nodes for j in JOBS)


class TestRequestValidation:
    def test_nodes_positive(self):
        with pytest.raises(ValueError, match="≥ 1"):
            request("x", 0, 1.5)

    def test_power_range_ordered(self):
        model = QuadraticPowerModel.from_anchors(2.0, 1.5, 140.0, 280.0)
        with pytest.raises(ValueError, match="p_min < p_max"):
            JobBudgetRequest("x", 1, model, p_min=280.0, p_max=140.0)

    def test_duplicate_ids_rejected(self):
        dup = [request("a", 1, 1.2), request("a", 1, 1.4)]
        with pytest.raises(ValueError, match="duplicate"):
            EvenPowerBudgeter().allocate(dup, 500.0)

    def test_budget_positive(self):
        with pytest.raises(ValueError, match="positive"):
            EvenPowerBudgeter().allocate(JOBS, 0.0)

    @pytest.mark.parametrize(
        "budgeter", [EvenSlowdownBudgeter, EvenPowerBudgeter, UniformCapBudgeter],
        ids=lambda cls: cls.name,
    )
    def test_non_finite_budget_rejected(self, budgeter):
        """``nan <= 0`` is false, so a positivity check alone passes a NaN
        budget: even-slowdown would answer caps near ``p_max``, even-power
        and uniform NaN caps, and uniform an infinite ``node_cap``."""
        for budget in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                budgeter().allocate(JOBS, budget)


class TestEvenPower:
    def test_full_budget_gives_max_caps(self):
        alloc = EvenPowerBudgeter().allocate(JOBS, TOTAL_MAX)
        for j in JOBS:
            assert alloc.caps[j.job_id] == pytest.approx(j.p_max)

    def test_starved_budget_gives_min_caps(self):
        alloc = EvenPowerBudgeter().allocate(JOBS, TOTAL_MIN * 0.5)
        for j in JOBS:
            assert alloc.caps[j.job_id] == pytest.approx(j.p_min)

    def test_gamma_uniform_across_jobs(self):
        budget = 0.5 * (TOTAL_MIN + TOTAL_MAX)
        alloc = EvenPowerBudgeter().allocate(JOBS, budget)
        gammas = [
            (alloc.caps[j.job_id] - j.p_min) / (j.p_max - j.p_min) for j in JOBS
        ]
        assert max(gammas) == pytest.approx(min(gammas))

    def test_budget_exactly_consumed_midrange(self):
        budget = 0.6 * TOTAL_MIN + 0.4 * TOTAL_MAX
        alloc = EvenPowerBudgeter().allocate(JOBS, budget)
        assert alloc.total_power(JOBS) == pytest.approx(budget)

    def test_empty_jobs(self):
        alloc = EvenPowerBudgeter().allocate([], 100.0)
        assert alloc.caps == {}

    @given(st.floats(100.0, 3000.0))
    @settings(max_examples=50)
    def test_property_caps_within_ranges(self, budget):
        alloc = EvenPowerBudgeter().allocate(JOBS, budget)
        for j in JOBS:
            assert j.p_min - 1e-9 <= alloc.caps[j.job_id] <= j.p_max + 1e-9


class TestEvenSlowdown:
    def test_equal_predicted_slowdown_midrange(self):
        budget = 0.5 * (TOTAL_MIN + TOTAL_MAX)
        alloc = EvenSlowdownBudgeter().allocate(JOBS, budget)
        slowdowns = [
            j.model.slowdown_at(alloc.caps[j.job_id])
            for j in JOBS
            if j.p_min < alloc.caps[j.job_id] < j.p_max  # not saturated
        ]
        assert len(slowdowns) >= 2
        assert max(slowdowns) - min(slowdowns) < 1e-3

    def test_low_sensitivity_saturates_first(self):
        """§6.1.1: low-sensitivity jobs level off at the minimum cap."""
        budget = TOTAL_MIN * 1.15
        alloc = EvenSlowdownBudgeter().allocate(JOBS, budget)
        assert alloc.caps["low"] == pytest.approx(140.0, abs=1.0)
        assert alloc.caps["high"] > 150.0

    def test_sensitive_job_gets_more_power(self):
        budget = 0.5 * (TOTAL_MIN + TOTAL_MAX)
        alloc = EvenSlowdownBudgeter().allocate(JOBS, budget)
        assert alloc.caps["high"] > alloc.caps["low"]

    def test_full_budget_gives_max_caps(self):
        alloc = EvenSlowdownBudgeter().allocate(JOBS, TOTAL_MAX * 1.1)
        for j in JOBS:
            assert alloc.caps[j.job_id] == pytest.approx(j.p_max)
        assert alloc.meta["slowdown"] == 1.0

    def test_budget_consumed_midrange(self):
        budget = 0.5 * (TOTAL_MIN + TOTAL_MAX)
        alloc = EvenSlowdownBudgeter().allocate(JOBS, budget)
        assert alloc.total_power(JOBS) == pytest.approx(budget, rel=1e-3)

    def test_bt_sp_matches_paper_scenario(self):
        """840 W across BT+SP (2 nodes each) — the Fig. 6 working point."""
        bt, sp = NAS_TYPES["bt"], NAS_TYPES["sp"]
        jobs = [
            JobBudgetRequest("bt", 2, bt.truth, 140.0, bt.p_demand),
            JobBudgetRequest("sp", 2, sp.truth, 140.0, sp.p_demand),
        ]
        alloc = EvenSlowdownBudgeter().allocate(jobs, 840.0)
        assert bt.truth.slowdown_at(alloc.caps["bt"]) == pytest.approx(
            sp.truth.slowdown_at(alloc.caps["sp"]), abs=1e-3
        )
        assert alloc.caps["bt"] > alloc.caps["sp"]

    def test_empty_jobs(self):
        alloc = EvenSlowdownBudgeter().allocate([], 100.0)
        assert alloc.caps == {}

    @given(st.floats(100.0, 3000.0))
    @settings(max_examples=50)
    def test_property_caps_within_ranges(self, budget):
        alloc = EvenSlowdownBudgeter().allocate(JOBS, budget)
        for j in JOBS:
            assert j.p_min - 1e-9 <= alloc.caps[j.job_id] <= j.p_max + 1e-9

    @given(st.floats(TOTAL_MIN * 1.02, TOTAL_MAX * 0.98))
    @settings(max_examples=50)
    def test_property_budget_met_when_feasible(self, budget):
        alloc = EvenSlowdownBudgeter().allocate(JOBS, budget)
        assert alloc.total_power(JOBS) == pytest.approx(budget, rel=5e-3)

    @given(
        st.lists(
            st.tuples(st.integers(1, 8), st.floats(1.0, 2.5)),
            min_size=1,
            max_size=6,
        ),
        st.floats(0.1, 0.9),
    )
    @settings(max_examples=40)
    def test_property_monotone_in_budget(self, specs, frac):
        jobs = [
            request(f"j{i}", nodes, sens) for i, (nodes, sens) in enumerate(specs)
        ]
        lo = sum(j.p_min * j.nodes for j in jobs)
        hi = sum(j.p_max * j.nodes for j in jobs)
        b1 = lo + frac * (hi - lo)
        b2 = min(hi, b1 * 1.1)
        a1 = EvenSlowdownBudgeter().allocate(jobs, b1)
        a2 = EvenSlowdownBudgeter().allocate(jobs, b2)
        for j in jobs:
            assert a2.caps[j.job_id] >= a1.caps[j.job_id] - 1e-6


@st.composite
def job_mixes(draw):
    """1–5 jobs on 1–8 nodes each, with NAS truth curves (one model object
    per type, so two jobs of a type share it) and ``from_anchors`` models
    (an object each) over two cap ranges, and a budget from below the floor
    (every job at ``p_min``) to above the ceiling (every job at ``p_max``)."""
    jobs = []
    for i in range(draw(st.integers(1, 5))):
        nodes = draw(st.integers(1, 8))
        if draw(st.booleans()):
            model, p_max = NAS_TYPES[draw(st.sampled_from(sorted(NAS_TYPES)))].truth, 280.0
        else:
            p_max = draw(st.sampled_from([240.0, 280.0]))
            model = QuadraticPowerModel.from_anchors(
                draw(st.floats(0.5, 4.0)), draw(st.floats(1.0, 2.5)), 140.0, p_max
            )
        jobs.append(
            JobBudgetRequest(
                job_id=f"j{i}", nodes=nodes, model=model, p_min=140.0, p_max=p_max
            )
        )
    floor = sum(j.p_min * j.nodes for j in jobs)
    ceiling = sum(j.p_max * j.nodes for j in jobs)
    return jobs, floor + draw(st.floats(-0.2, 1.2)) * (ceiling - floor)


class TestDifferential:
    """``allocate`` against references that share none of its shortcuts:
    ``EvenSlowdownBudgeter._caps_at``, the per-job form of the paper's
    ``p_j = P_j(s · T_j(p_max))`` with nothing hoisted, grouped or memoised,
    and even-power's closed form (paper §4.4.3: one ``s``, one ``γ``)."""

    @given(job_mixes())
    @settings(max_examples=25, deadline=None)
    def test_even_slowdown_is_the_reference_at_its_own_s(self, mix):
        jobs, budget = mix
        budgeter = EvenSlowdownBudgeter()
        alloc = budgeter.allocate(jobs, budget)
        s = alloc.meta["slowdown"]

        def total(at):
            caps = budgeter._caps_at(jobs, at)
            return sum(caps[j.job_id] * j.nodes for j in jobs)

        assert alloc.caps == budgeter._caps_at(jobs, s)
        if budget >= sum(j.p_min * j.nodes for j in jobs):
            # The root lies within ``tol`` of ``s``, so the overshoot is at
            # most what ``tol`` more slowdown would take back.
            assert total(s) <= budget + (total(s) - total(s + SOLVE_TOL)) + 1e-9
        # Brute force: no slowdown smaller by more than the bisection
        # tolerance both fits the budget and hands out more power.
        for at in np.linspace(1.0, s, 10_000):
            if at < s - SOLVE_TOL:
                assert not total(s) < total(at) <= budget, (at, s)

    @given(job_mixes())
    @settings(max_examples=50)
    def test_even_power_is_its_closed_form(self, mix):
        jobs, budget = mix
        alloc = EvenPowerBudgeter().allocate(jobs, budget)
        floor = sum(j.p_min * j.nodes for j in jobs)
        span = sum((j.p_max - j.p_min) * j.nodes for j in jobs)
        gamma = min(max((budget - floor) / span, 0.0), 1.0)
        assert alloc.meta["gamma"] == pytest.approx(gamma)
        for j in jobs:
            used = (alloc.caps[j.job_id] - j.p_min) / (j.p_max - j.p_min)
            assert used == pytest.approx(gamma, abs=1e-12)
        if 0.0 < gamma < 1.0:
            assert alloc.total_power(jobs) == pytest.approx(budget)

    @pytest.mark.parametrize("frac", [-0.1, 0.0, 0.13, 0.5, 0.87, 1.0, 1.1])
    def test_grouping_keys_on_the_object_and_the_requests_own_range(self, frac):
        """One representative per distinct ``(model object, p_min, p_max)``:
        jobs sharing an object share a cap, equal coefficients in distinct
        objects get equal caps from separate inverses, and one object asked
        for over two ranges is clamped to each."""
        shared = NAS_TYPES["bt"].truth
        twin = QuadraticPowerModel(shared.a, shared.b, shared.c, shared.p_min, shared.p_max)
        steep = QuadraticPowerModel.from_anchors(2.0, 1.9, 140.0, 280.0)
        jobs = [
            JobBudgetRequest("shared-0", 2, shared, p_min=140.0, p_max=280.0),
            JobBudgetRequest("steep-wide", 1, steep, p_min=140.0, p_max=280.0),
            JobBudgetRequest("shared-1", 4, shared, p_min=140.0, p_max=280.0),
            JobBudgetRequest("twin", 3, twin, p_min=140.0, p_max=280.0),
            JobBudgetRequest("steep-low-ceiling", 2, steep, p_min=140.0, p_max=230.0),
            JobBudgetRequest("steep-high-floor", 1, steep, p_min=190.0, p_max=280.0),
        ]
        floor = sum(j.p_min * j.nodes for j in jobs)
        ceiling = sum(j.p_max * j.nodes for j in jobs)
        budgeter = EvenSlowdownBudgeter()
        alloc = budgeter.allocate(jobs, floor + frac * (ceiling - floor))
        assert alloc.caps == budgeter._caps_at(jobs, alloc.meta["slowdown"])
        assert alloc.caps["shared-0"] == alloc.caps["shared-1"] == alloc.caps["twin"]
        assert alloc.caps["steep-low-ceiling"] <= 230.0 and alloc.caps["steep-high-floor"] >= 190.0

    @pytest.mark.parametrize("count", [1, 2, 150])
    def test_the_solves_total_is_the_request_order_sum_to_the_bit(self, count):
        rng = np.random.default_rng(count)
        truths = [NAS_TYPES[name].truth for name in sorted(NAS_TYPES)]
        jobs = []
        for i in range(count):
            if rng.random() < 0.7:
                model = truths[rng.integers(len(truths))]
            else:
                model = QuadraticPowerModel.from_anchors(
                    float(rng.uniform(0.5, 4.0)), float(rng.uniform(1.0, 2.5)), 140.0, 280.0
                )
            jobs.append(JobBudgetRequest(f"j{i}", int(rng.integers(1, 9)), model, 140.0, 280.0))
        budgeter = EvenSlowdownBudgeter()
        solve = _Solve(jobs)
        solved = budgeter.allocate(jobs, 0.6 * sum(j.p_max * j.nodes for j in jobs))
        s_hi = solve.s_hi
        for s in [1.0, s_hi, solved.meta["slowdown"], *rng.uniform(1.0, s_hi, 20).tolist()]:
            caps = budgeter._caps_at(jobs, s)
            # The parent's ``sum(caps[j.job_id] * j.nodes for j in jobs)``,
            # spelled as the adds it made: from CPython 3.12 ``sum``
            # compensates float adds, a loop never does.
            total = 0
            for j in jobs:
                total += caps[j.job_id] * j.nodes
            assert solve.total_at(s) == total
            assert solve.caps_at(s) == caps


class TestUniform:
    def test_same_cap_everywhere(self):
        alloc = UniformCapBudgeter().allocate(JOBS, 1000.0)
        caps = set(round(c, 6) for c in alloc.caps.values())
        assert len(caps) == 1

    def test_cap_is_budget_over_nodes(self):
        total_nodes = sum(j.nodes for j in JOBS)
        alloc = UniformCapBudgeter().allocate(JOBS, 200.0 * total_nodes)
        assert alloc.meta["node_cap"] == pytest.approx(200.0)

    def test_clamped_to_job_range(self):
        jobs = [request("a", 1, 1.5, p_max=240.0)]
        alloc = UniformCapBudgeter().allocate(jobs, 1000.0)
        assert alloc.caps["a"] == 240.0

    def test_empty_jobs(self):
        assert UniformCapBudgeter().allocate([], 100.0).caps == {}


class TestBudgetAllocation:
    def test_total_power(self):
        alloc = BudgetAllocation(caps={"a": 100.0}, budget=300.0)
        jobs = [request("a", 3, 1.5)]
        assert alloc.total_power(jobs) == 300.0


def odd_model(kind, rng, p_max):
    """A model of ``kind`` over [140, p_max]: the linear and constant shapes
    fits degrade to, and shapes the solve's certificate refuses."""
    lo, t = 140.0, float(rng.uniform(0.5, 3.0))
    if kind == "linear":  # b < 0: certified
        return QuadraticPowerModel(0.0, -t / float(rng.uniform(150.0, 600.0)), 2.0 * t, lo, p_max)
    if kind == "constant":
        return QuadraticPowerModel(0.0, 0.0, t, lo, p_max)
    if kind == "rising":  # b > 0: the inverse's middle branch is never reached
        return QuadraticPowerModel(0.0, t / 500.0, t, lo, p_max)
    if kind == "vertex-convex":  # a > 0, vertex in range, T(p_min) > T(p_max)
        v, a = float(rng.uniform(0.55, 0.95)) * (p_max - lo) + lo, t * 1e-4
        return QuadraticPowerModel(a, -2.0 * a * v, a * v * v + t, lo, p_max)
    if kind == "vertex-concave":  # a < 0, vertex in range, T(p_min) > T(p_max)
        v, a = float(rng.uniform(0.05, 0.45)) * (p_max - lo) + lo, -t * 1e-4
        return QuadraticPowerModel(a, -2.0 * a * v, a * v * v + t - a * (p_max - v) ** 2, lo, p_max)
    if kind == "non-finite":
        return QuadraticPowerModel(float(rng.choice([math.nan, math.inf])), -0.01, 3.0, lo, p_max)
    if kind == "negative":  # T(p_max) < 0: the total rises with s
        return QuadraticPowerModel(0.0, -0.05, 10.0, lo, p_max)
    raise ValueError(kind)


CERTIFIED_KINDS = ("linear", "constant", "rising")
UNCERTIFIED_KINDS = ("vertex-convex", "vertex-concave", "non-finite", "negative")


def build_mix(seed, count, odd):
    """``count`` requests mixing NAS truths (shared objects), two shared and
    many per-job ``from_anchors`` models over two cap ranges, and ``odd``
    models of the kinds above; and the ids of the jobs whose model the
    certificate must refuse."""
    rng = np.random.default_rng(seed)
    truths = [NAS_TYPES[name].truth for name in sorted(NAS_TYPES)]
    shared = [QuadraticPowerModel.from_anchors(1.5, 1.6, 140.0, 280.0),
              QuadraticPowerModel.from_anchors(2.5, 1.2, 140.0, 240.0)]
    jobs, refused = [], set()
    for i in range(count):
        u, nodes = rng.random(), int(rng.integers(1, 9))
        if i < len(odd):
            p_max = float(rng.choice([240.0, 280.0]))
            model = odd_model(odd[i], rng, p_max)
            if odd[i] in UNCERTIFIED_KINDS:
                refused.add(f"j{i}")
        elif u < 0.4:
            model = truths[rng.integers(len(truths))]
            p_max = model.p_max
        elif u < 0.6:
            model = shared[rng.integers(2)]
            p_max = model.p_max
        else:
            p_max = float(rng.choice([240.0, 280.0]))
            model = QuadraticPowerModel.from_anchors(
                float(rng.uniform(0.5, 4.0)), float(rng.uniform(1.0, 2.5)), 140.0, p_max)
        jobs.append(JobBudgetRequest(f"j{i}", nodes, model, 140.0, p_max))
    order = rng.permutation(count)
    return [jobs[k] for k in order], refused


class recorded_evaluations:
    """Every ``s`` the solve's ``total_at`` is evaluated at, in order."""

    def __enter__(self):
        self.seen, original = [], _Solve.total_at

        def total_at(solve, s):
            self.seen.append(s)
            return original(solve, s)

        self._original, _Solve.total_at = original, total_at
        return self.seen

    def __exit__(self, *exc):
        _Solve.total_at = self._original


def assert_is_the_bisection(budgeter, jobs, budget, refused):
    """``allocate`` equals the reference bisection to the bit; no ``s`` is
    evaluated twice; a fresh solve evaluates ``s = 1`` and a kept one does
    not; ``s_hi`` is evaluated only when ``s = 1`` is over the budget, and
    once per kept solve; the request is certified unless it holds a job in
    ``refused``, and without a certificate the evaluations are bisection's,
    less the bracket-end totals a kept solve already holds."""
    certified = not any(j.job_id in refused for j in jobs)
    assert _Solve(jobs).certified is certified
    ref, ref_evals = budget_reference.allocate(jobs, budget)
    total_at, _, s_hi, _ = budget_reference.hoisted(jobs)
    over = not total_at(1.0) <= budget
    kept, reused = budgeter._kept, budgeter.reused_solves
    had_hi = kept is not None and kept.total_hi is not None
    with recorded_evaluations() as seen:
        alloc = budgeter.allocate(jobs, budget)
    reused = budgeter.reused_solves > reused
    s = alloc.meta["slowdown"]
    assert s == ref.meta["slowdown"]
    assert list(alloc.caps.items()) == list(ref.caps.items())
    assert len(set(seen)) == len(seen), "an s was evaluated twice"
    assert (1.0 in seen) is not reused
    assert (s_hi in seen) is (over and not (reused and had_hi))
    assert all(1.0 <= x <= s_hi for x in seen)
    if not certified:
        # bisect_scalar evaluates the mid it returns on the tolerance test;
        # the replay returns it unevaluated.
        unevaluated = 1.0 < s < s_hi and total_at(s) != budget
        cached = reused and 1 + (over and had_hi)
        assert len(seen) == ref_evals - unevaluated - cached
    return alloc


@st.composite
def solve_cases(draw):
    """A request of 1–150 jobs (certified mixes and mixes with odd models)
    and a budget: below the floor, at it, inside, at the ceiling, above it,
    or equal to the total bisection evaluates at one of its mids (f == 0)."""
    count = draw(st.integers(1, 150))
    odd = draw(st.lists(st.sampled_from(CERTIFIED_KINDS + UNCERTIFIED_KINDS),
                        max_size=min(count, 3)))
    jobs, refused = build_mix(draw(st.integers(0, 2**32 - 1)), count, odd)
    floor = sum(j.p_min * j.nodes for j in jobs)
    ceiling = sum(j.p_max * j.nodes for j in jobs)
    where = draw(st.sampled_from(
        ["below", "floor", "ceiling", "above", "inside", "inside", "inside", "a mid", "a mid"]))
    if where == "a mid":
        total_at, _, s_hi, _ = budget_reference.hoisted(jobs)
        lo, hi = 1.0, s_hi
        for _ in range(draw(st.integers(0, 18))):
            lo, hi = draw(st.sampled_from([(lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)]))
        budget = total_at(0.5 * (lo + hi))
    else:
        frac = {"below": draw(st.floats(-0.3, -0.01)), "floor": 0.0, "ceiling": 1.0,
                "inside": draw(st.floats(0.02, 0.98)), "above": draw(st.floats(1.01, 1.3))}[where]
        budget = floor + frac * (ceiling - floor)
    return jobs, max(budget, 1.0), refused


#: How a round's request list differs from the last round's.
EDITS = ("keep", "keep", "equal", "model", "p_max", "width", "reorder", "add", "drop")
#: Where a round's budget lies: a step of the walk, or a fixed place.
PLACES = ("walk", "walk", "walk", "below", "floor", "ceiling", "above", "a mid")


def edit_requests(jobs, spare, refused, edit, rng):
    """``jobs`` after one ``edit``: the same objects (a new list); one
    request replaced by an equal-valued new object (its model too, half the
    time), or by one with another model, ``p_max`` or width; reordered; one
    added from ``spare``; or one dropped.  A job given a ``from_anchors``
    model leaves ``refused``; a refused job keeps its range."""
    jobs = list(jobs)
    k = int(rng.integers(len(jobs)))
    q = jobs[k]
    if edit == "equal":
        model = q.model
        if rng.random() < 0.5:
            model = QuadraticPowerModel(model.a, model.b, model.c, model.p_min, model.p_max)
        jobs[k] = JobBudgetRequest(q.job_id, q.nodes, model, q.p_min, q.p_max)
    elif edit == "model":
        refused.discard(q.job_id)
        model = QuadraticPowerModel.from_anchors(
            float(rng.uniform(0.5, 4.0)), float(rng.uniform(1.0, 2.5)), 140.0, q.p_max)
        jobs[k] = JobBudgetRequest(q.job_id, q.nodes, model, q.p_min, q.p_max)
    elif edit == "p_max" and q.job_id not in refused:
        p_max = 240.0 if q.p_max == 280.0 else 280.0
        jobs[k] = JobBudgetRequest(q.job_id, q.nodes, q.model, q.p_min, p_max)
    elif edit == "width":
        jobs[k] = JobBudgetRequest(q.job_id, q.nodes % 8 + 1, q.model, q.p_min, q.p_max)
    elif edit == "reorder":
        jobs = [jobs[i] for i in rng.permutation(len(jobs))]
    elif edit == "add" and spare:
        jobs.insert(int(rng.integers(len(jobs) + 1)), spare.pop())
    elif edit == "drop" and len(jobs) > 1:
        del jobs[k]
    return jobs


class TestLocateAndReplay:
    """``allocate`` (locate, then replay) against ``tests/budget_reference``,
    the bisection it replaced: the same ``s`` and caps to the bit."""

    @given(solve_cases())
    @settings(max_examples=120, deadline=None)
    def test_a_fresh_solve_is_the_bisection(self, case):
        assert_is_the_bisection(EvenSlowdownBudgeter(), *case)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.lists(st.sampled_from(CERTIFIED_KINDS + UNCERTIFIED_KINDS), max_size=2),
        st.lists(st.floats(-0.08, 0.08), min_size=5, max_size=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_warm_budgeter_is_the_bisection(self, seed, count, odd, steps):
        """One budgeter across a random walk of budgets, with a job leaving
        and one arriving along the way: its hint is the last solve's ``s``,
        and every answer is the fresh budgeter's and the bisection's."""
        jobs, refused = build_mix(seed, count + 1, odd)
        floor = sum(j.p_min * j.nodes for j in jobs)
        ceiling = sum(j.p_max * j.nodes for j in jobs)
        warm, frac = EvenSlowdownBudgeter(), 0.5
        for k, step in enumerate(steps):
            frac = min(max(frac + step, -0.1), 1.1)
            request = jobs[:-1] if k < len(steps) // 2 else jobs[1:]
            budget = floor + frac * (ceiling - floor)
            alloc = assert_is_the_bisection(warm, request, budget, refused)
            fresh = EvenSlowdownBudgeter().allocate(request, budget)
            assert alloc.meta == fresh.meta and alloc.caps == fresh.caps

    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["over", "under"])
    def test_a_bracket_end_on_a_mid_is_not_evaluated_again(self, side):
        """A solve that ends on bisection's first mid (``f == 0`` there) leaves
        it as the next solve's hint; a budget a µW away puts the root within
        the locate tolerance of it, so the located bracket ends on that mid
        and the replay decides it from the bracket: at or below the positive
        end, at or above the negative end."""
        jobs, _ = build_mix(5, 12, [])
        total_at, _, s_hi, _ = budget_reference.hoisted(jobs)
        first_mid = 0.5 * (1.0 + s_hi)
        budgeter = EvenSlowdownBudgeter()
        assert budgeter.allocate(jobs, total_at(first_mid)).meta["slowdown"] == first_mid
        assert_is_the_bisection(budgeter, jobs, total_at(first_mid) + side * 1e-6, set())

    @pytest.mark.parametrize("kind", CERTIFIED_KINDS + UNCERTIFIED_KINDS)
    def test_the_certificate(self, kind):
        """Each odd kind is certified or not as the solve's argument says;
        the NAS truths and every ``from_anchors`` curve are."""
        model = odd_model(kind, np.random.default_rng(0), 280.0)
        assert model.solve_constants(140.0, 280.0)[2] is (kind in CERTIFIED_KINDS)
        for jt in NAS_TYPES.values():
            assert jt.truth.solve_constants(jt.truth.p_min, jt.truth.p_max)[2]
        for sens in (1.0, 1.01, 1.5, 2.5):
            model = QuadraticPowerModel.from_anchors(2.0, sens, 140.0, 280.0)
            assert model.solve_constants(140.0, 280.0)[2]

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 30),
        st.lists(st.sampled_from(CERTIFIED_KINDS + UNCERTIFIED_KINDS), max_size=2),
        st.lists(
            st.tuples(st.sampled_from(EDITS), st.sampled_from(PLACES),
                      st.floats(-0.08, 0.08), st.integers(0, 18)),
            min_size=5, max_size=30,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_kept_solve_is_a_fresh_one(self, seed, count, odd, rounds):
        """One budgeter across a random walk of budgets (bracket ends, beyond
        them, ``f == 0`` at a bisection mid) while the request list changes
        at random rounds: it reuses its ``_Solve`` exactly when handed the
        same objects in the same order, and every answer is a fresh
        budgeter's and the bisection's."""
        rng = np.random.default_rng(seed)
        pool, refused = build_mix(seed, count + 8, odd)
        jobs, spare = pool[:count], pool[count:]
        warm, frac, last = EvenSlowdownBudgeter(), 0.5, ()
        for edit, place, step, halvings in rounds:
            jobs = edit_requests(jobs, spare, refused, edit, rng)
            floor = sum(j.p_min * j.nodes for j in jobs)
            ceiling = sum(j.p_max * j.nodes for j in jobs)
            frac = min(max(frac + step, -0.1), 1.1)
            if place == "a mid":
                total_at, _, s_hi, _ = budget_reference.hoisted(jobs)
                lo, hi = 1.0, s_hi
                for _ in range(halvings):
                    lo, hi = (lo, 0.5 * (lo + hi)) if rng.random() < 0.5 else (0.5 * (lo + hi), hi)
                budget = total_at(0.5 * (lo + hi))
            else:
                at = {"walk": frac, "below": -0.2, "floor": 0.0, "ceiling": 1.0, "above": 1.2}
                budget = floor + at[place] * (ceiling - floor)
            budget = max(budget, 1.0)
            same = len(jobs) == len(last) and all(a is b for a, b in zip(jobs, last))
            reused = warm.reused_solves
            alloc = assert_is_the_bisection(warm, jobs, budget, refused)
            assert (warm.reused_solves > reused) is same
            last = jobs
            fresh = EvenSlowdownBudgeter().allocate(jobs, budget)
            assert alloc.meta == fresh.meta
            assert list(alloc.caps.items()) == list(fresh.caps.items())

