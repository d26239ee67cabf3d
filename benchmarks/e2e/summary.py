"""Order statistics for the benchmark: medians, quartiles, guarded
percentiles, and the within / regressed / unresolved verdict of ``--aa``.

Pure standard library; nothing here touches the program under test.
"""

from __future__ import annotations

import math
import statistics

#: A percentile is only reported with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as the driver computes them."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; refuses when the tail is too thin.

    A p90 of 28 samples has fewer than three samples beyond it and mostly
    reports the single slowest outlier, so anything with fewer than
    :data:`MIN_TAIL_SAMPLES` samples beyond the requested rank raises.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {pct}")
    ordered = sorted(float(v) for v in values)
    rank = math.ceil(len(ordered) * pct / 100.0)
    beyond = len(ordered) - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{pct:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need {MIN_TAIL_SAMPLES}"
        )
    return ordered[rank - 1]


def highest_percentile(n_samples: int, candidates=(99, 95, 90, 75)) -> int | None:
    """The highest candidate percentile that ``n_samples`` can support."""
    for pct in candidates:
        if n_samples - math.ceil(n_samples * pct / 100.0) >= MIN_TAIL_SAMPLES:
            return pct
    return None


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``
    (negative when it improved)."""
    if first == 0:
        return 0.0 if second == 0 else math.inf
    delta = (second - first) / abs(first)
    return delta if better == "lower" else -delta


def classify(first, second, better: str, bound: float) -> str:
    """Verdict for two sets of runs of one (metric, workload) pair.

    ``unresolved`` when either set's own spread exceeds the bound (the
    measurement cannot tell a regression of that size from noise),
    ``regressed`` when the second median is worse than the first by more
    than the bound, else ``within``.
    """
    if max(spread(first), spread(second)) > bound:
        return "unresolved"
    if worsening(median(first), median(second), better) > bound:
        return "regressed"
    return "within"
