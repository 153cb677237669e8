"""Distribution statistics used across the report modules.

Empirical CDF/CCDF helpers, quantiles, and the boxplot summary the
paper uses in Figures 7 and 11b (box = quartiles, whiskers = 5th/95th
percentiles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


def _clean(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return values[np.isfinite(values)]


def ccdf(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical complementary CDF.

    Returns ``(x, p)`` with ``p[i] = P(X > x[i])`` over sorted unique
    sample points — the format of Figures 5 and 11a.
    """
    values = _clean(values)
    if len(values) == 0:
        return np.array([]), np.array([])
    x = np.sort(values)
    p = 1.0 - (np.arange(1, len(x) + 1) / len(x))
    return x, p


def cdf_at(values: np.ndarray, threshold: float) -> float:
    """P(X <= threshold)."""
    values = _clean(values)
    if len(values) == 0:
        return float("nan")
    return float((values <= threshold).mean())


def ccdf_at(values: np.ndarray, threshold: float) -> float:
    """P(X > threshold) — e.g. the share of heavy hitters above 10 GB."""
    values = _clean(values)
    if len(values) == 0:
        return float("nan")
    return float((values > threshold).mean())


def quantiles(values: np.ndarray, qs: Sequence[float] = (0.25, 0.5, 0.75)) -> np.ndarray:
    """Quantiles over finite samples."""
    values = _clean(values)
    if len(values) == 0:
        return np.full(len(qs), np.nan)
    return np.quantile(values, qs)


@dataclass(frozen=True)
class BoxplotStats:
    """Five-number summary matching the paper's boxplot convention."""

    p5: float
    q1: float
    median: float
    q3: float
    p95: float
    n: int


def boxplot_stats(values: np.ndarray) -> BoxplotStats:
    """Box (quartiles) and whiskers (5th/95th percentiles)."""
    values = _clean(values)
    if len(values) == 0:
        return BoxplotStats(*([float("nan")] * 5), n=0)
    p5, q1, median, q3, p95 = np.quantile(values, [0.05, 0.25, 0.5, 0.75, 0.95])
    return BoxplotStats(float(p5), float(q1), float(median), float(q3), float(p95), len(values))
