"""The emulated cluster's job scheduler.

The paper's harness replays a submission schedule through one queue on the
head node (§4.1, §5.3): :class:`FcfsScheduler`, strict first-come-first-
served, where the queue head blocks everything behind it until its nodes
free up.  The AQA queue-weight scheduler used by the tabular simulator lives
in :mod:`repro.aqa.scheduler`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "fcfs": ("FcfsScheduler",),
    },
)
