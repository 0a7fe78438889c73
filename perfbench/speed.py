"""Machine-speed gauge: scales measured times to a nominal machine speed.

On a shared 2-vCPU VM the speed of the same loop changed by up to 40%
over tens of seconds, as other tenants loaded the cores; wall and CPU
time changed alike. A fixed kernel of the same kind of work as the
solver (Python glue, small numpy arrays, a LAPACK LU on a 7x7 system),
timed every half second between program calls, tracks that speed: over
25-second windows the ratio of solver time to kernel time moved by 3%
while solver time alone moved by 20%. It tracks one busy core only.

A time t measured while the kernel took k seconds is reported as
t * NOMINAL_KERNEL_S / k: the time it would take on a machine where the
kernel takes NOMINAL_KERNEL_S. The kernel does not use stepsqp, so no
change to the program can move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
import scipy.linalg

NOMINAL_KERNEL_S = 0.010
GAUGE_EVERY_S = 0.5
# After a long program call the gauge catches up, up to this many timings,
# so every second of a run holds about the same number of them.
GAUGE_CATCH_UP = 4
# Kernel timings this far either side of an interval set its scale: wide
# enough that the kernel's own noise averages out, narrower than the
# tens of seconds over which the machine's speed moves.
GAUGE_SPAN_S = 5.0

_rng = np.random.default_rng(0)
_J = _rng.standard_normal((2, 5))
_KKT = np.block([[np.eye(5), _J.T], [_J, np.zeros((2, 2))]])


def kernel(steps: int = 300) -> float:
    """A fixed SQP-like loop: assemble a right-hand side, LU-solve, take a step."""
    x = np.ones(5)
    total = 0.0
    for i in range(steps):
        g = 0.5 * x + float(i % 3)
        c = _J @ x - 1.0
        rhs = np.concatenate([-g, -c])
        z = scipy.linalg.lu_solve(scipy.linalg.lu_factor(_KKT, check_finite=False), rhs,
                                  check_finite=False)
        total += float(np.max(np.abs(_KKT @ z - rhs))) + float(g @ z[:5])
        x = x + 0.1 * z[:5]
    return total


class SpeedGauge:
    """Kernel timings through a run, and the scale they imply for any interval."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def measure(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def tick(self) -> None:
        """Measure once per GAUGE_EVERY_S since the last measurement, up to GAUGE_CATCH_UP."""
        if not self.starts:
            self.measure()
            return
        due = int((time.perf_counter() - self.starts[-1]) / GAUGE_EVERY_S)
        for _ in range(min(due, GAUGE_CATCH_UP)):
            self.measure()

    def scale(self, t0: float, t1: float) -> float:
        """Factor from seconds measured in [t0, t1] to nominal seconds.

        Uses the median kernel timing within GAUGE_SPAN_S of the interval,
        and at least the nearest timing on each side of it.
        """
        if not self.durations:
            raise ValueError("the gauge has no measurements")
        lo = min(bisect.bisect_left(self.starts, t0 - GAUGE_SPAN_S),
                 bisect.bisect_left(self.starts, t0) - 1)
        hi = max(bisect.bisect_right(self.starts, t1 + GAUGE_SPAN_S),
                 bisect.bisect_right(self.starts, t1) + 1)
        return NOMINAL_KERNEL_S / statistics.median(self.durations[max(lo, 0):hi])
