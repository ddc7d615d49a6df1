"""The job-tier power-modeling process (paper §4.2, Fig. 2).

One :class:`JobTierEndpoint` runs per job (on the job's first compute node in
the paper).  It bridges three parties:

* **down**: the GEOPM endpoint/agents, over "shared memory" (direct handles);
* **up**: the cluster-tier manager, over a TCP link;
* **inside**: an :class:`~repro.modeling.online.OnlineModeler` that converts
  epoch feedback into quadratic model coefficients.

Each control period it reads the latest agent sample, feeds the modeler,
applies any budget messages from the cluster tier as GEOPM policies, and
sends a status message upward — including model coefficients once a
trustworthy fit exists, when feedback is enabled.
"""

from __future__ import annotations

import math
import zlib

from repro.core.messages import BudgetMessage, GoodbyeMessage, HelloMessage, StatusMessage
from repro.core.transport import TcpLink
from repro.geopm.agent import AgentPolicy
from repro.geopm.endpoint import Endpoint
from repro.modeling.online import OnlineModeler
from repro.modeling.quadratic import QuadraticPowerModel
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.workloads.nas import P_NODE_MAX, P_NODE_MIN

__all__ = ["JobTierEndpoint"]

# Gates on sharing a fit upward (``_evaluate_model_fields``): a two-sample fit
# has R² = 1 by construction and a fit from a narrow cap window claims
# "insensitive" having seen nothing, so a fit is shared only once the modeler
# has this many epochs, training samples and spread of caps (a fraction of
# the enforceable range) behind it.
MIN_FEEDBACK_EPOCHS = 10
MIN_FEEDBACK_SAMPLES = 6
MIN_CAP_COVERAGE = 0.04
#: Identification dither: ±6 % of the budgeted cap while no fit is shareable,
#: zero mean so the job's average power still honours its budget.
EXPLORE_AMPLITUDE = 0.06
#: Control periods the dither holds each sign, so several whole epochs
#: elapse at each level (toggling faster than an epoch averages it away).
EXPLORE_HOLD_STEPS = 12


class JobTierEndpoint:
    """Per-job bridge between the GEOPM endpoint and the cluster manager."""

    def __init__(
        self,
        job_id: str,
        claimed_type: str,
        nodes: int,
        geopm_endpoint: Endpoint,
        link: TcpLink,
        *,
        default_model: QuadraticPowerModel,
        feedback_enabled: bool = True,
        retrain_threshold: int = 10,
        warm_model: QuadraticPowerModel | None = None,
        warm_r2: float | None = None,
        lease_ttl: float | None = None,
        lease_ramp_seconds: float = 30.0,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        self.job_id = job_id
        self.claimed_type = claimed_type
        self.nodes = int(nodes)
        self.geopm = geopm_endpoint
        self.link = link
        self.feedback_enabled = bool(feedback_enabled)
        self.modeler = OnlineModeler(
            P_NODE_MIN, P_NODE_MAX, default_model, retrain_threshold=retrain_threshold
        )
        # (modeler revision, fields) of the last shareability verdict.
        self._fields_memo: tuple[int, dict] = (-1, {})
        self._hello_sent = False
        self._goodbye_sent = False
        self.current_cap = P_NODE_MAX
        # The last sample's timestamp the modeler was fed: slower agents
        # leave one sample up for several periods (see ``step``).
        self._fed = -math.inf
        # A byzantine fault's fake fit fields, shared instead of the fit's.
        self.forged: dict | None = None
        # Excitation for online system identification: while the modeler has
        # not yet observed meaningfully different caps, the endpoint dithers
        # the applied cap by EXPLORE_AMPLITUDE around the budget.  The paper's
        # runs get this excitation "for free" from time-varying budgets;
        # static-budget scenarios (Figs. 6–8) need the dither to learn
        # anything — see DESIGN.md.
        self._explore_sign = 1.0
        # Stagger dither phase across jobs so cluster-level excitation
        # cancels instead of stacking into tracking error.  crc32, not
        # hash(): Python salts string hashes per process, which would make
        # seeded runs non-reproducible.
        self._explore_step = zlib.crc32(job_id.encode()) % EXPLORE_HOLD_STEPS
        # Warm restart: a watchdog-restarted endpoint receives the last model
        # the cluster tier validated for this job, so it resumes sharing a
        # trusted fit immediately instead of re-fitting (and re-dithering)
        # from zero.  The modeler's own refits take over once live data
        # accumulates.
        if warm_model is not None:
            self.modeler.seed_fit(warm_model, r2=warm_r2)
        # Cap-lease state (dead-man switch, paper-level fail-safe).  A lease
        # only exists once a BudgetMessage arrives carrying ``lease_ttl``;
        # until then the endpoint keeps the pre-lease hold-last-value
        # behaviour bit-for-bit.  Expiry anchors to *receipt* time, so the
        # over-target bound is relative to last contact with the head.  The
        # decay's floor is the platform's ``P_NODE_MIN``.
        self.lease_ramp_seconds = float(lease_ramp_seconds)
        # Armed from birth when the deployment runs leases: an endpoint that
        # has *never* heard from the head (admitted mid-partition, say) is the
        # same fail-safe case as one whose head went silent — it must not sit
        # at ``P_NODE_MAX`` indefinitely.  The expiry clock starts on the first step.
        self._lease_ttl: float | None = (
            None if lease_ttl is None else float(lease_ttl)
        )
        self._lease_expires: float | None = None
        self._degraded_since: float | None = None
        self._decay_from: float | None = None
        self._degraded_applied: float | None = None
        self.degraded_seconds = 0.0
        self.lease_expiries = 0
        self.telemetry = telemetry
        if telemetry.enabled:
            self._mx_statuses = telemetry.registry.counter(
                "anor_statuses_sent_total", "status messages sent by job endpoints"
            )
            self._mx_policies = telemetry.registry.counter(
                "anor_policies_written_total", "GEOPM policies written by job endpoints"
            )

    # ---------------------------------------------------------------- control

    def step(self, now: float) -> StatusMessage | None:
        """One endpoint control period; returns the status sent (if any)."""
        if not self._hello_sent:
            # A re-HELLO after degraded autonomy hands the head our own fit
            # so it warm-merges instead of cold-probing (mirrors the PR 3
            # checkpoint warm-restart path, but sourced from the survivor).
            degraded_total = self._total_degraded(now)
            hello_model = self._model_fields() if degraded_total > 0 else {}
            self.link.send_up(
                HelloMessage(
                    job_id=self.job_id,
                    claimed_type=self.claimed_type,
                    nodes=self.nodes,
                    timestamp=now,
                    degraded_seconds=degraded_total,
                    **hello_model,
                ),
                now,
            )
            self._hello_sent = True
        # Process the latest agent sample FIRST: it was measured at or before
        # ``now``, while any cap change below is stamped at ``now`` — feeding
        # them to the modeler out of order would run its clock backwards
        # (§7.2's timestamped-sample mapping).
        status: StatusMessage | None = None
        sample = self.geopm.read_sample()
        if sample is not None:
            if sample.timestamp > self._fed:
                # Feed the modeler with the cap the agents report *enforcing*
                # (it may lag the requested cap by tree propagation), once: a
                # sample seen before is older than any cap stamped since.
                self._fed = sample.timestamp
                self.modeler.observe(
                    sample.timestamp, sample.epoch_count, sample.applied_cap
                )
            # A status every period, new sample or not, or the head marks
            # the job stale.
            status = StatusMessage(
                job_id=self.job_id,
                timestamp=sample.timestamp,
                epoch_count=sample.epoch_count,
                measured_power=sample.power,
                applied_cap=sample.applied_cap,
                **self._model_fields(),
            )
            self.link.send_up(status, now)
            if self.telemetry.enabled:
                self._mx_statuses.inc()

        # Apply budget messages from the cluster tier (last one wins).
        budget: BudgetMessage | None = None
        for msg in self.link.recv_down(now):
            if isinstance(msg, BudgetMessage):
                budget = msg
        if budget is not None:
            self._adopt_lease(budget, now)
            self.current_cap = float(budget.power_cap_node)
        if self._lease_ttl is not None and self._lease_expires is None:
            # First step under a configured lease with no budget yet: start
            # the dead-man clock now (see the armed-from-birth note above).
            self._lease_expires = now + self._lease_ttl
        if (
            self._lease_expires is not None
            and now > self._lease_expires
            and self._degraded_since is None
        ):
            self._enter_degraded(now)

        if self._degraded_since is not None:
            # Degraded autonomy: the head is silent past its lease.  Decay
            # toward ``P_NODE_MIN`` over the bounded ramp and suppress dither
            # (excitation with nobody listening only costs job performance);
            # the modeler keeps observing so the eventual re-HELLO carries a
            # current fit.
            cap = self._degraded_cap(now)
            changed = write = cap != self._degraded_applied
            self._degraded_applied = cap
        else:
            cap = self._cap_to_apply()
            changed = budget is not None or cap != self.current_cap
            # Leased and in contact: rewrite the policy every period so the
            # agents' own dead-man switch stays armed-but-quiet — it fires
            # only if this endpoint process dies and stops refreshing.
            write = changed or self._lease_ttl is not None
        if write:
            self.geopm.write_policy(
                AgentPolicy(cap, now)
                if self._lease_ttl is None
                else AgentPolicy(
                    cap, now, self._lease_ttl, P_NODE_MIN, self.lease_ramp_seconds
                )
            )
        if changed:
            self.modeler.set_cap(now, cap)
            if self.telemetry.enabled:
                self._mx_policies.inc()
        return status

    def _cap_to_apply(self) -> float:
        """The budgeted cap, dithered while still identifying the model.

        The sign is held for ``EXPLORE_HOLD_STEPS`` control periods.
        Exploration stops once the modeler's fit is good enough to share
        (and resumes if the fit degrades), bounding the dither's cost to
        job performance and cluster power-tracking.
        """
        if not self.feedback_enabled or self._model_fields():
            return self.current_cap
        self._explore_step += 1
        if self._explore_step % EXPLORE_HOLD_STEPS == 0:
            self._explore_sign = -self._explore_sign
        dithered = self.current_cap * (1.0 + self._explore_sign * EXPLORE_AMPLITUDE)
        return float(min(max(dithered, P_NODE_MIN), P_NODE_MAX))

    def _model_fields(self) -> dict:
        """Model coefficients for the status message, when shareable: a pure
        function of the modeler's history and fit, memoised on its revision
        (a forgery's, while one is set)."""
        if self.forged is not None:
            return dict(self.forged)
        revision = self.modeler.revision
        if self._fields_memo[0] != revision:
            self._fields_memo = (revision, self._evaluate_model_fields())
        return self._fields_memo[1]

    def _evaluate_model_fields(self) -> dict:
        """The shareability verdict, from scratch.

        The gates below keep degenerate fits away from the budgeter: a
        two-sample fit has R² = 1 by construction, and a flat fit from a
        narrow cap window claims "insensitive" when it has really seen
        nothing — acting on either starves the job and (because a starved
        job's samples cluster at low caps) can lock the error in.
        """
        if not self.feedback_enabled or not self.modeler.has_fit:
            return {}
        if not self.modeler.seeded and (
            self.modeler.epochs_observed < MIN_FEEDBACK_EPOCHS
            or self.modeler.cap_coverage < MIN_CAP_COVERAGE
            or len(self.modeler.history) < MIN_FEEDBACK_SAMPLES
        ):
            # A seeded (warm-restart) fit skips the history gates: it already
            # passed the cluster tier's validation before the restart.
            return {}
        m = self.modeler.model
        if not m.is_monotone_decreasing() or m.t_min <= 0:
            # Non-physical fit; hold it back until it stabilises.
            return {}
        if (
            not self.modeler.seeded
            and m.sensitivity < 1.02
            and self.modeler.cap_coverage < 0.3
        ):
            # "Flat" needs wide cap coverage to be believable.
            return {}
        return {
            "model_a": m.a,
            "model_b": m.b,
            "model_c": m.c,
            "model_r2": self.modeler.fit_r2,
        }

    # ------------------------------------------------------------ cap leases

    @property
    def degraded(self) -> bool:
        """True while this endpoint is operating without a valid cap lease."""
        return self._degraded_since is not None

    def _total_degraded(self, now: float) -> float:
        ongoing = now - self._degraded_since if self._degraded_since is not None else 0.0
        return self.degraded_seconds + ongoing

    def _adopt_lease(self, msg: BudgetMessage, now: float) -> None:
        """Refresh (or clear) the lease from a just-received budget message."""
        if msg.lease_ttl is not None:
            self._lease_ttl = float(msg.lease_ttl)
            self._lease_expires = now + self._lease_ttl
        else:
            self._lease_ttl = None
            self._lease_expires = None
        if self._degraded_since is not None:
            self._exit_degraded(now)

    def _enter_degraded(self, now: float) -> None:
        self._degraded_since = now
        self._decay_from = float(self.current_cap)
        self._degraded_applied = None
        self.lease_expiries += 1
        if self.telemetry.enabled:
            self.telemetry.incident("degraded-autonomy-start", now, job_id=self.job_id)

    def _exit_degraded(self, now: float) -> None:
        stretch = now - self._degraded_since
        self.degraded_seconds += stretch
        if self.telemetry.enabled:
            self.telemetry.incident(
                "degraded-autonomy-end", now, job_id=self.job_id, duration=stretch
            )
        self._degraded_since = None
        self._decay_from = None
        self._degraded_applied = None

    def _degraded_cap(self, now: float) -> float:
        """Linear decay from the last budget toward ``P_NODE_MIN``.

        Never raises the cap: a last budget below ``P_NODE_MIN`` is held (the
        dead-man switch exists to shed power, not grant it).
        """
        floor = min(P_NODE_MIN, self._decay_from)
        elapsed = now - self._degraded_since
        ramp = self.lease_ramp_seconds
        if ramp <= 0 or elapsed >= ramp:
            return floor
        return float(self._decay_from - (elapsed / ramp) * (self._decay_from - floor))

    def reconnect(self, link: TcpLink) -> None:
        """Swap in a fresh link and re-announce (head-node restart path).

        The old connection died with the head node; the endpoint process
        itself — modeler, dither phase, current cap — is untouched, so the
        next control period opens with a HELLO and the cluster tier
        reconciles this job against its recovered state.
        """
        if self.link is not link:
            # The dead connection's in-flight mail is lost — count it.
            self.link.close("reconnect")
        self.link = link
        self._hello_sent = False

    def close(self, now: float) -> None:
        """Send the goodbye when the job completes (idempotent)."""
        if not self._goodbye_sent:
            self.link.send_up(GoodbyeMessage(job_id=self.job_id, timestamp=now), now)
            self._goodbye_sent = True
