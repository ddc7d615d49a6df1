"""Property test: checkpoint + journal tail ≡ the live job table.

The manager journals *state changes*: a status that repeats the fit a record
already holds is a heartbeat and writes nothing.  This suite drives a manager
with arbitrary message sequences — repeats, refits, rejected and gated
models, reconnect HELLOs with and without a degraded-history fit, goodbyes —
takes a checkpoint at an arbitrary point, and requires that replaying the
journal tail onto that checkpoint reproduces, per job, exactly the online
coefficients, their R² and the last cap of the live table.  That is all a
restarted head node gets, so nothing it needs may live only in a dropped
repeat.
"""

import copy
import math

from hypothesis import given, settings, strategies as st

from repro.budget.even_slowdown import EvenSlowdownBudgeter
from repro.core.messages import GoodbyeMessage, HelloMessage, StatusMessage
from repro.core.targets import ConstantTarget
from repro.core.transport import TcpLink
from repro.durable.journal import Journal
from repro.durable.state import apply_journal, empty_state, job_entry
from repro.modeling.classifier import JobClassifier
from repro.modeling.quadratic import QuadraticPowerModel
from tests.fed_manager import FedManager

JOBS = ("a", "b", "c")
NODES = 2
# Believed ceilings differ by claimed type, so a reconnect under another
# claim changes ``believed_p_max`` under a fit the record already holds.
CLAIMS = {
    "bt": QuadraticPowerModel.from_anchors(2.0, 1.65, 140.0, 272.0),
    "sp": QuadraticPowerModel.from_anchors(2.0, 1.12, 140.0, 240.0),
}
#: (a, b, c, r2): physical fits, then one the R² gate skips, then three the
#: validator must reject (non-finite, non-finite R², time rising with power).
FITS = (
    (0.0, -0.01, 5.0, 0.9),
    (0.0, -0.01, 5.0, 0.8),
    (2e-5, -0.02, 7.0, 0.95),
    (0.0, -0.004, 3.0, None),
    (0.0, -0.01, 5.0, 0.01),
    (math.nan, -0.01, 5.0, 0.9),
    (0.0, -0.01, 5.0, math.nan),
    (0.0, 0.02, 1.0, 0.9),
)

fit_index = st.integers(0, len(FITS) - 1)
job_index = st.integers(0, len(JOBS) - 1)
ops = st.lists(
    st.one_of(
        # Weighted towards statuses, and towards repeating the same few fits.
        st.tuples(st.just("status"), job_index, st.integers(0, 2)),
        st.tuples(st.just("status"), job_index, fit_index),
        st.tuples(st.just("plain"), job_index, st.just(0)),
        st.tuples(
            st.just("hello"), job_index,
            st.tuples(st.sampled_from(sorted(CLAIMS)), st.none() | fit_index),
        ),
        st.tuples(st.just("goodbye"), job_index, st.just(0)),
    ),
    min_size=1,
    max_size=40,
)


def fit_fields(index):
    if index is None:
        return {}
    a, b, c, r2 = FITS[index]
    return {"model_a": a, "model_b": b, "model_c": c, "model_r2": r2}


def live_jobs_state(manager):
    return {job_id: job_entry(rec) for job_id, rec in sorted(manager.jobs.items())}


@settings(max_examples=150, deadline=None)
@given(ops=ops, checkpoint_at=st.integers(0, 40))
def test_checkpoint_plus_journal_tail_equals_live_job_table(
    tmp_path_factory, ops, checkpoint_at
):
    journal = Journal(tmp_path_factory.mktemp("store") / "journal.jsonl")
    manager = FedManager(
        budgeter=EvenSlowdownBudgeter(),
        target_source=ConstantTarget(len(JOBS) * NODES * 200.0),
        classifier=JobClassifier(dict(CLAIMS)),
        total_nodes=len(JOBS) * NODES,
        journal=journal,
    )
    links: dict[str, TcpLink] = {}
    checkpoint = empty_state()
    watermark = 0
    for step, (kind, j, arg) in enumerate(ops):
        now = float(step)
        job_id = JOBS[j]
        if step == checkpoint_at:
            checkpoint["manager"]["jobs"] = copy.deepcopy(live_jobs_state(manager))
            watermark = journal.seq
        if kind == "hello":
            claimed, fit = arg
            link = links[job_id] = TcpLink(latency=0.0)
            manager.register_link(link)
            link.send_up(
                HelloMessage(
                    job_id, claimed, NODES, now,
                    degraded_seconds=0.0 if fit is None else 30.0,
                    **fit_fields(fit),
                ),
                now,
            )
        elif job_id in links:
            if kind == "goodbye":
                links.pop(job_id).send_up(GoodbyeMessage(job_id, now), now)
            else:
                links[job_id].send_up(
                    StatusMessage(
                        job_id=job_id, timestamp=now, epoch_count=step,
                        measured_power=NODES * 200.0, applied_cap=200.0,
                        **fit_fields(arg if kind == "status" else None),
                    ),
                    now,
                )
        manager.step(now)
    journal.close()

    tail = Journal(journal.path).replay(min_seq=watermark).records
    replayed = apply_journal(checkpoint, tail)["manager"]["jobs"]
    live = live_jobs_state(manager)
    assert sorted(replayed) == sorted(live)
    for job_id, entry in live.items():
        got = replayed[job_id]
        # NaN never enters the table: the validator rejects it.
        assert got["online"] == entry["online"], job_id
        assert got["online_r2"] == entry["online_r2"], job_id
        assert got["last_cap"] == entry["last_cap"], job_id
        assert got["believed_p_max"] == entry["believed_p_max"], job_id
