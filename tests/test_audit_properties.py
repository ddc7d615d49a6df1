"""Property test: budget conservation under arbitrary trust churn.

Whatever sequence of quarantine/rehabilitation verdicts the auditor (or an
operator override) produces, every budget round's planned draw — idle +
reserved (including quarantine envelopes) + allocated — must stay within
the round's ceiling ``max(target + correction, floor)``.  Hypothesis drives
the trust state machine through arbitrary forced sequences while a real
system runs under a :class:`~repro.invariants.RoundMonitor`, advanced tick
by tick with ``step()`` and in ``run()``'s multi-tick windows.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.budget.even_slowdown import EvenSlowdownBudgeter
from repro.core.audit import TRUST_STATES
from repro.core.framework import AnorConfig, AnorSystem, precharacterized_models
from repro.core.targets import ConstantTarget
from repro.invariants import RoundMonitor
from repro.modeling.classifier import JobClassifier

JOB_IDS = ("bt-0", "sp-1", "cg-2")

# A churn script: (settle rounds before acting, which job, forced state).
churn = st.lists(
    st.tuples(
        st.integers(1, 25),
        st.integers(0, len(JOB_IDS) - 1),
        st.sampled_from(sorted(TRUST_STATES)),
    ),
    min_size=1,
    max_size=6,
)


def build(monitor: RoundMonitor) -> AnorSystem:
    system = AnorSystem(
        budgeter=EvenSlowdownBudgeter(),
        target_source=ConstantTarget(5 * 170.0),
        classifier=JobClassifier(precharacterized_models()),
        config=AnorConfig(
            num_nodes=5, seed=2, feedback_enabled=True,
            audit_enabled=True,
        ),
        monitors=[monitor],
    )
    for job_id in JOB_IDS:
        system.submit_now(job_id, job_id.split("-")[0])
    return system


class TestBudgetConservationUnderTrustChurn:
    @pytest.mark.parametrize("through_run", [False, True])
    @given(script=churn)
    @settings(max_examples=12, deadline=None)
    def test_planned_draw_never_exceeds_ceiling(self, through_run, script):
        monitor = RoundMonitor()
        system = build(monitor)

        def advance(ticks: int) -> None:
            # The monitor sees every round either way: from inside ``run``'s
            # windows, or one ``step`` at a time.
            if through_run:
                system.run(ticks * system.config.tick)
            else:
                for _ in range(ticks):
                    system.step()
            assert not monitor.violations, monitor.violations[:3]

        advance(40)  # past job setup, so caps and envelopes are in play
        for settle, job_idx, state in script:
            system.manager.auditor.force_state(
                JOB_IDS[job_idx], state, now=system.cluster.clock.now)
            advance(settle)
        # Quarantine churn must also never wedge the run: release all
        # overrides and let the cluster drain.
        for job_id in JOB_IDS:
            system.manager.auditor.force_state(
                job_id, "trusted", now=system.cluster.clock.now)
        result = system.run(until_idle=True, max_time=7200.0)
        assert monitor.rows and not monitor.violations, monitor.violations[:3]
        assert result.unstarted_jobs == 0
        assert len(result.completed) == len(JOB_IDS)
