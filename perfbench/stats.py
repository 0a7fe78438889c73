"""Benchmark arithmetic: percentiles with a sample-count rule, failure tally.

Kept free of stepsqp imports so the rules can be tested on their own.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

# A tail percentile is reported only when at least this many samples lie
# beyond it; fewer make the value one or two outliers, not a percentile.
MIN_BEYOND = 10

# (label, fraction below) in increasing order.
PERCENTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p99.9", 0.999))


def samples_beyond(n: int, fraction: float) -> int:
    """Samples of n that lie above the given percentile: floor(n * (1 - fraction))."""
    # Rounding before the floor keeps n = 100 at p90 from landing on 9.999...
    return int(round(n * (1.0 - fraction), 9))


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> "str | None":
    """Highest percentile label with at least min_beyond of n samples beyond it."""
    best = None
    for label, fraction in PERCENTILES:
        if samples_beyond(n, fraction) >= min_beyond:
            best = label
    return best


def percentile(values, fraction: float) -> float:
    """An observed value: the sample at or just above the percentile's position.

    numpy's "higher" method. Interpolating would report, for cells that
    split evenly around a gap between problem sizes, the mean of two runs
    on either side of it; which cells fall on which side changes with the
    seed, and the mean jumps with it.
    """
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), 100.0 * fraction,
                               method="higher"))


def median_over_passes(passes, fraction: float) -> float:
    """Median over passes of each pass's percentile (as percentile gives it).

    A pass runs every cell of a workload once, so each pass percentile is
    one run of the same cell. A percentile of all runs pooled lands on a
    rank that moves with the number of passes; where it falls on the
    slowest runs of one cell, it reads an extreme of that cell's runs.
    """
    values = [percentile(p, fraction) for p in passes if len(p)]
    if not values:
        raise ValueError("no non-empty passes")
    return statistics.median(values)


@dataclass
class Tally:
    """Operations attempted and failed; an operation fails on any violation."""

    attempted: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)

    def record(self, label: str, problems: "list[str]") -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.violations.extend(f"{label}: {p}" for p in problems)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
