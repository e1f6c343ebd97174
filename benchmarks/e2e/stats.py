"""Estimators shared by the benchmark, its A/A check and its tests."""

import math
import statistics
from statistics import median
from typing import List, Optional, Sequence

#: A percentile is only reported with this many samples beyond it.
SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; refuses to answer unless at least
    :data:`SAMPLES_BEYOND` samples lie beyond the returned one (a p95
    of 24 samples is the maximum under another name)."""
    n = len(values)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < SAMPLES_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {max(n - rank, 0)} samples beyond it; "
            f"need {SAMPLES_BEYOND}")
    return float(sorted(values)[rank - 1])


def percentile_or_none(values: Sequence[float], p: float) -> Optional[float]:
    try:
        return percentile(values, p)
    except ValueError:
        return None


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread the driver holds every bound against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first`` as a share of
    ``first`` (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def bound_from_gaps(gaps: List[float], floor: float, cap: float = 0.25) -> float:
    """The issue's rule: twice the worst A/A gap seen, never below the
    metric's floor; the contract caps a bound at 0.25."""
    return min(cap, max(floor, 2.0 * max(gaps, default=0.0)))
