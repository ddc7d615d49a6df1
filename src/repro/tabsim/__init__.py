"""Tabular cluster simulator (paper §5.6).

"The simulator is implemented as a collection of tables that store the
current state of nodes and jobs in the cluster."  Node and job state live in
NumPy arrays so the per-second update is vectorised over the 1000 nodes —
each simulated second updates node progress, refreshes the scheduler/power-
manager view, schedules jobs, caps power, and appends to the history.

Jobs follow a *linear* power-performance relationship here (the paper's
simulator "track[s] the minimum and maximum power and time of each job type,
to simulate a simple linear power-performance relationship"), unlike the
quadratic models of the job tier.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "tables": ("JobState", "JobTable", "NodeTable", "SimJobType"),
        "simulator": ("SimConfig", "SimResult", "TabularClusterSimulator"),
        "variation": ("variation_sigma_for_band", "draw_node_multipliers"),
    },
)
