"""Statistics rules shared by the benchmark and its spread report."""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, Iterable, List, Optional, Sequence


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of an ascending sequence.

    The value at rank ``ceil(q/100 * n)``: no interpolation, so the
    result is always a measured sample.
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be within (0, 100]")
    rank = max(1, math.ceil(q / 100.0 * n))
    return sorted_values[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th
    percentile's rank."""
    return n - max(1, math.ceil(q / 100.0 * n))


#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples support reporting the ``q``-th percentile."""
    return n > 0 and beyond(n, q) >= MIN_BEYOND


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the inter-quartile range as a share of
    the median (``statistics.quantiles(values, n=4)``)."""
    values = list(values)
    mid = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    share = (q3 - q1) / mid if mid else 0.0
    return {"median": mid, "q1": q1, "q3": q3, "iqr_share": share}


def medians(
    rows: List[Dict[str, Any]], keys: Optional[Iterable[str]] = None
) -> Dict[str, float]:
    """Per-key median over a list of dicts (``keys``: all of the first's)."""
    keys = rows[0] if keys is None else keys
    return {key: statistics.median(row[key] for row in rows) for key in keys}
