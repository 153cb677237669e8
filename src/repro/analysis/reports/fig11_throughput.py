"""Figure 11 — download throughput per customer.

(a) CCDF per country over bulk flows (≥10 MB): knees sit at the
commercial plan rates — 30/50/100 Mb/s in Europe (customers can
saturate their plan with one flow), 10/30 Mb/s in Africa where "only
few customers can saturate" (congestion, community APs, weaker
terminals). (b) night vs peak boxplots: throughput drops at peak
everywhere, most visibly in Congo and South Africa.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.aggregate import format_table, local_hour_of
from repro.analysis.dataset import FlowFrame
from repro.analysis.stats import BoxplotStats, boxplot_stats, ccdf_at
from repro.constants import BULK_FLOW_MIN_BYTES, NIGHT_HOURS, PEAK_HOURS
from repro.traffic.profiles import TOP_COUNTRIES

PAPER_PLAN_KNEES_MBPS = {
    "Europe": (30.0, 50.0, 100.0),
    "Africa": (10.0, 30.0),
}


@dataclass
class Fig11Result:
    """Per-country bulk-flow throughput samples (Mb/s) and night/peak."""

    samples_mbps: Dict[str, np.ndarray]
    night_boxes: Dict[str, BoxplotStats]
    peak_boxes: Dict[str, BoxplotStats]

    def countries(self) -> List[str]:
        return list(self.samples_mbps)

    def n_samples(self, country: str) -> int:
        return int(len(self.samples_mbps[country]))

    def median_mbps(self, country: str) -> float:
        return float(np.median(self.samples_mbps[country]))

    def fraction_above(self, country: str, mbps: float) -> float:
        return ccdf_at(self.samples_mbps[country], mbps)

    def night_median(self, country: str) -> float:
        return self.night_boxes[country].median

    def peak_median(self, country: str) -> float:
        return self.peak_boxes[country].median

    def peak_degradation(self, country: str) -> float:
        """Relative median drop from night to peak (0 = none)."""
        night = self.night_median(country)
        peak = self.peak_median(country)
        if not np.isfinite(night) or night <= 0:
            return float("nan")
        return 1.0 - peak / night


@dataclass
class Fig11RollupView:
    """Figure 11 stats served from per-country throughput histograms.

    Same query surface as :class:`Fig11Result` (:func:`render` accepts
    either): medians and CCDF fractions interpolate inside a sub-decade
    log bin of the all/night/peak banks.
    """

    rollup: object
    rows: Dict[str, int]  # country -> rollup row

    def countries(self) -> List[str]:
        return list(self.rows)

    def n_samples(self, country: str) -> int:
        return int(round(self.rollup.h11_all.total(self.rows[country])))

    def median_mbps(self, country: str) -> float:
        return self.rollup.h11_all.quantile(self.rows[country], 0.5)

    def fraction_above(self, country: str, mbps: float) -> float:
        return self.rollup.h11_all.ccdf_at(self.rows[country], mbps)

    def night_median(self, country: str) -> float:
        row = self.rows[country]
        if self.rollup.h11_night.total(row) == 0:
            return float("nan")
        return self.rollup.h11_night.quantile(row, 0.5)

    def peak_median(self, country: str) -> float:
        row = self.rows[country]
        if self.rollup.h11_peak.total(row) == 0:
            return float("nan")
        return self.rollup.h11_peak.quantile(row, 0.5)

    def peak_degradation(self, country: str) -> float:
        night = self.night_median(country)
        peak = self.peak_median(country)
        if not np.isfinite(night) or night <= 0:
            return float("nan")
        return 1.0 - peak / night


def from_rollup(
    rollup, countries: Sequence[str] = TOP_COUNTRIES
) -> Fig11RollupView:
    """Figure 11 from a :class:`~repro.stream.StreamRollup`."""
    return Fig11RollupView(
        rollup=rollup, rows={c: rollup.country_row(c) for c in countries}
    )


def compute(
    frame: FlowFrame,
    countries: Sequence[str] = TOP_COUNTRIES,
    min_bytes: float = BULK_FLOW_MIN_BYTES,
) -> Fig11Result:
    """Bulk-download throughput distributions per country."""
    throughput = frame.download_throughput_bps() / 1e6
    bulk = (frame.bytes_down >= min_bytes) & np.isfinite(throughput)
    local_hour = local_hour_of(frame)
    night = (local_hour >= NIGHT_HOURS[0]) & (local_hour < NIGHT_HOURS[1])
    peak = (local_hour >= PEAK_HOURS[0]) & (local_hour < PEAK_HOURS[1])

    samples: Dict[str, np.ndarray] = {}
    night_boxes: Dict[str, BoxplotStats] = {}
    peak_boxes: Dict[str, BoxplotStats] = {}
    for country in countries:
        mask = frame.country_mask(country) & bulk
        samples[country] = throughput[mask]
        night_boxes[country] = boxplot_stats(throughput[mask & night])
        peak_boxes[country] = boxplot_stats(throughput[mask & peak])
    return Fig11Result(
        samples_mbps=samples, night_boxes=night_boxes, peak_boxes=peak_boxes
    )


def render(result: Fig11Result) -> str:
    rows = []
    for country in result.countries():
        n = result.n_samples(country)
        if n == 0:
            continue
        rows.append(
            (
                country,
                n,
                f"{result.median_mbps(country):.1f}",
                f"{result.fraction_above(country, 25.0) * 100:.0f} %",
                f"{result.night_median(country):.1f}",
                f"{result.peak_median(country):.1f}",
                f"{result.peak_degradation(country) * 100:.0f} %",
            )
        )
    return format_table(
        ["Country", "Bulk flows", "Median Mb/s", ">25 Mb/s", "Night med", "Peak med", "Drop"],
        rows,
        title="Figure 11: bulk download throughput (flows ≥ 10 MB)",
    )


from repro.analysis import registry as _registry

_registry.register(
    name="fig11",
    title="Bulk download throughput",
    module=__name__,
    columns=("country_idx", "hour_utc", "bytes_down", "duration_s"),
    compute_frame=compute,
    compute_rollup=from_rollup,
    render=render,
)
