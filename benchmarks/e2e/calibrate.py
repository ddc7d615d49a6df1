"""Speed calibration: host seconds scaled to a reference machine speed.

On the 2-core sandbox this benchmark was built on, identical work takes
between 4.3 s and 7.0 s of wall time from one minute to the next, and CPU time
moves with it: the core itself runs up to 25 % slower while the host is busy.
No statistic over 15 s of such timings holds to better than ~17 % between
quartiles, so no bound could separate a regression from the weather.

The drift is slow enough (correlation over ~1 s) to measure while the workload
runs.  A fixed, pure-interpreter kernel of about 20 ms is run from a SIGALRM
handler every 0.2 s of the timed call; the time it takes is the machine's
speed at that moment.  A timing is then reported as

    (host seconds − seconds spent in the kernel) × REF_KERNEL_S ÷ mean kernel time

that is, the seconds the call would have taken had the machine run at the
reference speed throughout.  On the same box this holds identical work to
~3 % between quartiles.  Parent and change are measured with the same kernel,
so their ratio is unaffected by the choice of ``REF_KERNEL_S``.  The raw
timings are kept beside the scaled ones in the results file.

Nothing under ``src/`` is touched: the handler runs between two bytecodes of
whatever the main thread is executing, and Python retries system calls a
signal interrupts.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import Callable

#: The kernel's time on the reference box; fixes the unit of scaled seconds.
REF_KERNEL_S = 0.022
PERIOD_S = 0.2


def kernel() -> float:
    """About 20 ms of float, dict and loop bytecodes; returns its duration."""
    start = perf_counter()
    acc = 0.0
    slots: dict[int, float] = {}
    for i in range(200_000):
        acc += (i * 0.5) ** 0.5
        slots[i & 63] = acc
    return perf_counter() - start


class Calibrator:
    """Samples the kernel on a timer while the process does its work."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # host seconds inside the handler, kernel included
        #: Told how long each interruption took, so a tracer can leave it
        #: out of whatever layer it landed in.
        self.on_spent: Callable[[float], None] | None = None

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(kernel())
        spent = perf_counter() - start
        self.spent += spent
        if self.on_spent is not None:
            self.on_spent(spent)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        """(samples taken, seconds spent) so far: where an interval starts."""
        return len(self.samples), self.spent

    def scale(self, own_seconds: float, first_sample: int, min_samples: int = 3) -> float:
        """``own_seconds`` of work at the reference speed.

        ``own_seconds`` is an interval's host time less what the handler spent
        inside it; the samples from ``first_sample`` on are the ones taken
        during it.  An interval too short to have been interrupted
        ``min_samples`` times gets the rest as a burst right after it.
        """
        missing = min_samples - (len(self.samples) - first_sample)
        if missing > 0:
            # Held back for the burst, or the timer would time a kernel
            # inside a kernel.
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
            self.samples.extend(kernel() for _ in range(missing))
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        samples = self.samples[first_sample:]
        return own_seconds * REF_KERNEL_S * len(samples) / sum(samples)
