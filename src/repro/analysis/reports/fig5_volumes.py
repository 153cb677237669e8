"""Figure 5 — CCDFs of daily flows / download / upload per customer.

Paper: (a) >50 % of European customers generate fewer than 250 flows a
day (idle CPEs) while African customers generate almost an order of
magnitude more; (b) heavy hitters (>10 GB down/day) are ~8 % in Congo
vs ~4 % in Spain; (c) uploads >1 GB/day: Congo 10 %, Nigeria 7 %,
South Africa 5 %, Europe 3–4 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.analysis.aggregate import (
    customer_day_bytes,
    customer_day_flow_counts,
    format_table,
)
from repro.analysis.dataset import FlowFrame
from repro.analysis.stats import ccdf_at
from repro.constants import ACTIVE_CUSTOMER_FLOW_THRESHOLD, BYTES_PER_GB
from repro.traffic.profiles import TOP_COUNTRIES

PAPER_HEAVY_DOWNLOADERS_PCT: Dict[str, float] = {"Congo": 8.0, "Spain": 4.0}
PAPER_HEAVY_UPLOADERS_PCT: Dict[str, float] = {
    "Congo": 10.0,
    "Nigeria": 7.0,
    "South Africa": 5.0,
    "UK": 3.5,
    "Spain": 3.5,
    "Ireland": 3.5,
}


@dataclass
class Fig5Result:
    """Per-country customer-day samples and the headline fractions."""

    flow_counts: Dict[str, np.ndarray]
    download_bytes: Dict[str, np.ndarray]
    upload_bytes: Dict[str, np.ndarray]

    def idle_fraction(self, country: str) -> float:
        """Share of customer-days under the 250-flow activity knee."""
        counts = self.flow_counts[country]
        return float((counts < ACTIVE_CUSTOMER_FLOW_THRESHOLD).mean())

    def heavy_downloader_pct(self, country: str, threshold_gb: float = 10.0) -> float:
        return ccdf_at(self.download_bytes[country], threshold_gb * BYTES_PER_GB) * 100.0

    def heavy_uploader_pct(self, country: str, threshold_gb: float = 1.0) -> float:
        return ccdf_at(self.upload_bytes[country], threshold_gb * BYTES_PER_GB) * 100.0

    def median_flows(self, country: str) -> float:
        return float(np.median(self.flow_counts[country]))


@dataclass
class Fig5RollupView:
    """Figure 5 headline stats served from rollup sketches.

    Mirrors :class:`Fig5Result`'s query surface (so :func:`render`
    accepts either): the idle fraction is exact (a dedicated counter),
    the heavy-hitter fractions are exact at the 1/10 GB thresholds
    (decade bin edges), and medians interpolate inside a histogram bin.
    """

    rollup: object
    flow_counts: Dict[str, int]  # country -> rollup row (render iterates keys)

    def idle_fraction(self, country: str) -> float:
        row = self.flow_counts[country]
        total = self.rollup.cd_total_c[row]
        return float(self.rollup.cd_idle_c[row] / total) if total else float("nan")

    def heavy_downloader_pct(self, country: str, threshold_gb: float = 10.0) -> float:
        row = self.flow_counts[country]
        return self.rollup.h5_down.ccdf_at(row, threshold_gb * BYTES_PER_GB) * 100.0

    def heavy_uploader_pct(self, country: str, threshold_gb: float = 1.0) -> float:
        row = self.flow_counts[country]
        return self.rollup.h5_up.ccdf_at(row, threshold_gb * BYTES_PER_GB) * 100.0

    def median_flows(self, country: str) -> float:
        return self.rollup.h5_flows.quantile(self.flow_counts[country], 0.5)


def from_rollup(rollup, countries: Sequence[str] = TOP_COUNTRIES) -> Fig5RollupView:
    """Figure 5 from a :class:`~repro.stream.StreamRollup`."""
    return Fig5RollupView(
        rollup=rollup,
        flow_counts={c: rollup.country_row(c) for c in countries},
    )


def compute(frame: FlowFrame, countries: Sequence[str] = TOP_COUNTRIES) -> Fig5Result:
    """Customer-day distributions for the requested countries."""
    return Fig5Result(
        flow_counts={c: customer_day_flow_counts(frame, c) for c in countries},
        download_bytes={c: customer_day_bytes(frame, c, "down") for c in countries},
        upload_bytes={c: customer_day_bytes(frame, c, "up") for c in countries},
    )


def render(result: Fig5Result) -> str:
    rows = []
    for country in result.flow_counts:
        paper_dl = PAPER_HEAVY_DOWNLOADERS_PCT.get(country)
        paper_ul = PAPER_HEAVY_UPLOADERS_PCT.get(country)
        rows.append(
            (
                country,
                f"{result.median_flows(country):.0f}",
                f"{result.idle_fraction(country) * 100:.0f} %",
                f"{result.heavy_downloader_pct(country):.1f} %"
                + (f" (paper {paper_dl:.0f})" if paper_dl else ""),
                f"{result.heavy_uploader_pct(country):.1f} %"
                + (f" (paper {paper_ul:.0f})" if paper_ul else ""),
            )
        )
    return format_table(
        ["Country", "Median flows/day", "<250 flows", ">10 GB down", ">1 GB up"],
        rows,
        title="Figure 5: per-customer daily activity and volume",
    )


from repro.analysis import registry as _registry

_registry.register(
    name="fig5",
    title="Per-customer daily activity and volume",
    module=__name__,
    columns=("country_idx", "customer_id", "day", "bytes_up", "bytes_down"),
    compute_frame=compute,
    compute_rollup=from_rollup,
    render=render,
)
