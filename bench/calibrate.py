"""The reference kernel that tells the benchmark how fast the CPU runs.

On a shared host the same pure-Python code can run up to 2x slower, in
spells from under a second to minutes, on one CPU and not the other.  The
benchmark times this fixed kernel on the CPU a job runs on, before and
after the job, and reports the job's time scaled by `REFERENCE_S` over the
kernel's time: seconds at the speed at which the kernel takes
`REFERENCE_S`.  The
kernel uses only the standard library, so no change to the program moves
it; it does the kind of work the program does (exact rational arithmetic,
gcds, dicts keyed by tuples), so a slow spell slows both alike.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

SAMPLES = 3  # kernel runs per measurement; the measurement is their mean
# The kernel's median time on the host of the baseline in README.md.
REFERENCE_S = 0.010


def kernel() -> Fraction:
    total = Fraction(0)
    table: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 500):
        term = Fraction(i % 11 - 5, 3 * (i % 7) + 1) * Fraction(2 * i + 1, i % 5 + 2)
        total += term / (i % 13 + 1)
        table[(i % 29, i % 31)] = table.get((i % 29, i % 31), Fraction(0)) + term
    return total + sum(table.values())


EXPECTED = kernel()


def sample() -> float:
    """Seconds of one run of the kernel; raises if it computes a wrong value."""
    start = time.perf_counter()
    value = kernel()
    elapsed = time.perf_counter() - start
    if value != EXPECTED:
        raise RuntimeError("reference kernel gave a different value")
    return elapsed


def measure() -> float:
    """The kernel's time on this CPU now: the mean of SAMPLES runs.

    The CPU flips between a fast and a slow state many times a second, so
    a job's time follows the share of time spent slow; a mean estimates
    that share, where a median would pick one of the states."""
    return statistics.mean(sample() for _ in range(SAMPLES))


def factor(kernel_seconds: float) -> float:
    """The scale from measured to reference-speed seconds."""
    return REFERENCE_S / kernel_seconds
