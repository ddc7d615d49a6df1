"""The emulated cluster's per-node, per-tick reference: the test oracle.

``EmulatedCluster`` steps every rank of every job, and every idle node,
across one tick or a run of them in one array pass (its window kernel).
This module is the loop that pass replaced, written node by node and tick by
tick over the same memory (the cluster's columns, through the ``Node``,
``MsrBank``, ``RunningJob`` and ``EpochProfiler`` views) and reading the same
noise streams.  The kernel ≡ reference tests hold the two bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.hwsim.cluster import EmulatedCluster
from repro.hwsim.job import JobPhase, RunningJob
from repro.hwsim.node import Node
from repro.util.rng import TapeStream
from repro.workloads.nas import IDLE_NODE_POWER
from repro.workloads.phased import PhasedJobType


def consume(
    node: Node, demand_watts: float, dt: float, rng: TapeStream | np.random.Generator
) -> float:
    """Draw power for ``dt`` seconds and deposit energy into the MSRs.

    ``demand_watts`` is what the workload would draw unconstrained; RAPL
    keeps the average at or below the programmed cap, so the realised
    draw is ``min(cap, demand·(1+ε))`` with a small measurement/actuation
    noise ε, floored at idle power.  ε is ``rng.normal(0, 0.01)``: in a
    cluster, a draw of the node's stream or of its job's, a row of the
    cluster's tape.  Returns the realised node power.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if node.failed:
        node._power[0] = 0.0
        return 0.0
    noisy_demand = demand_watts * (1.0 + rng.normal(0.0, 0.01))
    power = min(node.power_cap, max(noisy_demand, IDLE_NODE_POWER))
    per_package = power * dt / len(node.banks)
    for bank in node.banks:
        bank.accumulate_energy(per_package)
    node._power[0] = power
    return power


def consume_idle(node: Node, dt: float, rng: TapeStream | np.random.Generator) -> float:
    """Idle-power tick (no job, or a job in setup/teardown)."""
    return consume(node, IDLE_NODE_POWER, dt, rng)


def advance(job: RunningJob, dt: float, now: float) -> None:
    """One job's tick: per-node physics, then :func:`settle`."""
    tick_power = None
    if job.phase is JobPhase.COMPUTE:
        tick_power = advance_compute_nodewise(job, dt, now)
    else:  # setup/teardown: every node draws idle power
        for node in job.nodes:
            consume_idle(node, dt, job.rng)
    settle(job, dt, now, tick_power)


def settle(job: RunningJob, dt: float, now: float, power: float | None) -> None:
    """Phase bookkeeping for a tick whose physics is already deposited.

    ``power`` is the job's realised draw over a compute tick (the
    left-to-right sum over its nodes), None in any other phase.  The kernel
    folds the same ``+=`` chains for a whole window, the compute ones masked
    to the ticks the job computed, and calls ``turn_phase`` with each turn's
    own tick: ``phase_elapsed`` at that tick before the call, its chain
    restarted from 0.0 after it.
    """
    if job.phase is JobPhase.DONE:
        return
    job.phase_elapsed += dt
    if power is not None:
        job._compute_energy += power * dt
        job._compute_seconds += dt
    job.turn_phase(now)


def _curve(job_type, cap: float, frac: float) -> tuple[float, float]:
    """Seconds per epoch and unconstrained draw at cap ``cap`` and lifecycle
    fraction ``frac``: a phased type's current phase, any other's one curve."""
    if isinstance(job_type, PhasedJobType):
        return job_type.time_per_epoch_at(cap, frac), job_type.power_demand_at(frac)
    return float(job_type.time_per_epoch(float(cap))), job_type.p_demand


def advance_compute_nodewise(job: RunningJob, dt: float, now: float) -> float:
    """Per-node compute tick; returns the job power."""
    job_type = job.job_type
    tick_power = 0.0
    for i, node in enumerate(job.nodes):
        row = node.node_id
        cap = node.power_cap
        frac = job._progress[row] / job_type.epochs
        tau, p_demand = _curve(job_type, cap, frac)
        jitter = float(np.exp(job.rng.normal(0.0, job_type.noise)))
        rate = node.perf_multiplier / (tau * job._run_multiplier * jitter)
        job._progress[row] += rate * dt
        done_epochs = min(int(job._progress[row]), job_type.epochs)
        if done_epochs > job.profiler.rank_count(i):
            job.profiler.set_rank_progress(i, done_epochs, timestamp=now)
        demand = min(max(cap, job_type.p_min), p_demand)
        if job_type.power_wave > 0.0:
            # Epoch-periodic draw signature (compute vs. exchange phases
            # inside each iteration).
            epoch_phase = job._progress[row] % 1.0
            demand *= 1.0 + job_type.power_wave * np.sin(2.0 * np.pi * epoch_phase)
        tick_power += consume(node, demand, dt, job.rng)
    return tick_power


def node_streams(cluster: EmulatedCluster) -> list[TapeStream]:
    """Each node's own noise stream: its row of the cluster's tape."""
    return [TapeStream(cluster._tape, i) for i in range(cluster.num_nodes)]


def scalar_advance(cluster: EmulatedCluster, dt: float) -> float:
    """``cluster.advance(dt)``, node by node: every job's tick, then every
    idle node's, then the releases and the meter."""
    now = cluster.clock.now
    idle = cluster.idle_nodes()
    for job in cluster.running.values():
        advance(job, dt, now)
    streams = node_streams(cluster)
    for node in idle:
        consume_idle(node, dt, streams[node.node_id])
    cluster._retire_done(cluster.running.values())
    power = 0.0
    for node in cluster.nodes:
        power += node.last_power
    cluster._power_history.append((now, power))
    return power
