"""Summary arithmetic shared by the benchmark: the tail-percentile rule and
a pairwise-ranking AUC oracle.

Standard library plus numpy only, so the self-tests can import it without
edgenet on the path.
"""

from __future__ import annotations

import numpy as np

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
TAIL_MIN_BEYOND = 10


def _rank(q: float, n: int) -> int:
    """1-based nearest-rank position of percentile q among n samples, in
    integer arithmetic so that 99.9% of 10000 is exactly 9990."""
    return max(1, -(-round(q * 100) * n // 10000))


def nearest_rank(values, q: float) -> float:
    """The q-th percentile by the nearest-rank method (a sample value)."""
    ordered = sorted(values)
    return float(ordered[_rank(q, len(ordered)) - 1])


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten of ``n`` samples beyond
    its nearest-rank position; None when ``n`` is too small for any."""
    best = None
    for q in TAIL_LADDER:
        if n - _rank(q, n) >= TAIL_MIN_BEYOND:
            best = q
    return best


def tail(values) -> tuple[float | None, float | None]:
    """(percentile, value) of the tail rule, or (None, None)."""
    q = tail_percentile(len(values))
    if q is None:
        return None, None
    return q, nearest_rank(values, q)


def pairwise_auc(scores, labels) -> float:
    """Share of (positive, negative) pairs ranked correctly, ties counting
    half: the ranking statistic the trapezoidal ROC area must equal."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    neg = np.sort(scores[~labels])
    pos = scores[labels]
    below = np.searchsorted(neg, pos, side="left")
    at_or_below = np.searchsorted(neg, pos, side="right")
    wins = below.sum() + 0.5 * (at_or_below - below).sum()
    return float(wins) / (pos.size * neg.size)
