"""Order statistics for benchmark records.

Percentiles use the nearest-rank rule on the sorted samples, so every
reported value is one that was actually measured.  A tail percentile is
only reported when at least ``min_beyond`` samples lie strictly beyond
it; below that the figure is one or two outliers, not a tail.
"""

import math

__all__ = ["median", "percentile", "tail_percentile"]


def median(values):
    """The middle sample (mean of the two middle ones for even counts)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _rank(n, q):
    """1-based nearest rank of percentile ``q`` (0 < q <= 100) among n."""
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    return max(1, math.ceil(q / 100.0 * n))


def percentile(values, q):
    """Nearest-rank percentile ``q`` of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), q) - 1]


def tail_percentile(values, q, min_beyond=10):
    """``(value, beyond)`` for percentile ``q``, where ``beyond`` counts the
    samples ranked strictly above it.

    Raises ``ValueError`` when fewer than ``min_beyond`` samples lie
    beyond the rank: such a "p99" would be set by a handful of samples.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = _rank(len(ordered), q)
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need at least {min_beyond}"
        )
    return ordered[rank - 1], beyond

