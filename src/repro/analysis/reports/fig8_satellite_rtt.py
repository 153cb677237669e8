"""Figure 8 — satellite-segment RTT (TLS-handshake method).

(a) per-country distributions at night (2:00–5:00 local) vs peak
(13:00–20:00 local). Paper: the floor is above 550 ms everywhere;
Spain is best at night (82 % of samples < 1 s); ~20 % of Congo's
samples exceed 2 s even off-peak (PEP saturation); Ireland's heavy tail
is load-independent (channel impairments at the coverage edge).

(b) median satellite RTT per beam against normalized beam utilization:
Congo and Ireland sit high regardless of utilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.aggregate import format_table, local_hour_of
from repro.analysis.dataset import FlowFrame
from repro.analysis.stats import cdf_at, quantiles
from repro.constants import NIGHT_HOURS, PEAK_HOURS
from repro.traffic.profiles import TOP_COUNTRIES

PAPER_SPAIN_NIGHT_UNDER_1S = 0.82
PAPER_CONGO_OVER_2S = 0.20
PAPER_FLOOR_MS = 550.0


@dataclass
class Fig8aResult:
    """country → {'night'|'peak' → sat-RTT samples (ms)}."""

    samples: Dict[str, Dict[str, np.ndarray]]

    def quartiles_ms(self, country: str, period: str) -> np.ndarray:
        return quantiles(self.samples[country][period])

    def fraction_under(self, country: str, period: str, ms: float) -> float:
        return cdf_at(self.samples[country][period], ms)

    def fraction_over(self, country: str, period: str, ms: float) -> float:
        return 1.0 - self.fraction_under(country, period, ms)

    def minimum_ms(self, country: str) -> float:
        values = np.concatenate(
            [self.samples[country]["night"], self.samples[country]["peak"]]
        )
        values = values[np.isfinite(values)]
        return float(values.min()) if len(values) else float("nan")


@dataclass
class Fig8bResult:
    """Per-beam (median sat RTT ms, normalized utilization, country)."""

    rows: List[Tuple[str, str, float, float]]  # (beam, country, median, util)


@dataclass
class Fig8aRollupView:
    """Figure 8a stats served from per-country night/peak histograms.

    Same query surface as :class:`Fig8aResult`; quantiles and CDF
    fractions interpolate inside a 25 ms bin, and the per-country
    minimum is tracked exactly. ``samples`` maps country → period →
    the backing :class:`~repro.stream.HistFamily` row, so ``render``
    can iterate countries the same way.
    """

    rollup: object
    samples: Dict[str, Dict[str, int]]  # country -> period -> rollup row

    def _hist(self, period: str):
        return self.rollup.h8_night if period == "night" else self.rollup.h8_peak

    def quartiles_ms(self, country: str, period: str) -> np.ndarray:
        return self._hist(period).quantiles(self.samples[country][period])

    def fraction_under(self, country: str, period: str, ms: float) -> float:
        return self._hist(period).cdf_at(self.samples[country][period], ms)

    def fraction_over(self, country: str, period: str, ms: float) -> float:
        return 1.0 - self.fraction_under(country, period, ms)

    def minimum_ms(self, country: str) -> float:
        value = self.rollup.sat_min_c[self.rollup.country_row(country)]
        return float(value) if np.isfinite(value) else float("nan")


def from_rollup(rollup, countries: Sequence[str] = TOP_COUNTRIES) -> Fig8aRollupView:
    """Figure 8a from a :class:`~repro.stream.StreamRollup`.

    8b is frame-only: per-beam medians need the beam axis, which the
    rollup deliberately does not sketch (see DESIGN.md §8).
    """
    return Fig8aRollupView(
        rollup=rollup,
        samples={
            c: {"night": rollup.country_row(c), "peak": rollup.country_row(c)}
            for c in countries
        },
    )


def compute_fig8a(
    frame: FlowFrame, countries: Sequence[str] = TOP_COUNTRIES
) -> Fig8aResult:
    """Night/peak satellite-RTT samples per country."""
    local_hour = local_hour_of(frame)
    has_sat = np.isfinite(frame.sat_rtt_ms)
    night = (local_hour >= NIGHT_HOURS[0]) & (local_hour < NIGHT_HOURS[1])
    peak = (local_hour >= PEAK_HOURS[0]) & (local_hour < PEAK_HOURS[1])
    samples: Dict[str, Dict[str, np.ndarray]] = {}
    for country in countries:
        mask = frame.country_mask(country) & has_sat
        samples[country] = {
            "night": frame.sat_rtt_ms[mask & night].astype(np.float64),
            "peak": frame.sat_rtt_ms[mask & peak].astype(np.float64),
        }
    return Fig8aResult(samples=samples)


def compute_fig8b(
    frame: FlowFrame, countries: Sequence[str] = TOP_COUNTRIES
) -> Fig8bResult:
    """Median peak-time satellite RTT per beam vs normalized utilization.

    Utilization is proxied by the beam's peak-time traffic volume,
    normalized to the busiest beam — the paper normalizes the same way
    to avoid disclosing absolute figures.
    """
    local_hour = local_hour_of(frame)
    peak = (local_hour >= PEAK_HOURS[0]) & (local_hour < PEAK_HOURS[1])
    has_sat = np.isfinite(frame.sat_rtt_ms)
    country_of_beam: Dict[int, str] = {}
    volumes: Dict[int, float] = {}
    medians: Dict[int, float] = {}
    volume = frame.bytes_total()
    wanted = {frame.countries.index(c) for c in countries}
    for beam_idx in np.unique(frame.beam_idx):
        if beam_idx < 0:
            continue
        beam_mask = frame.beam_idx == beam_idx
        country_idx = int(frame.country_idx[beam_mask][0])
        if country_idx not in wanted:
            continue
        peak_mask = beam_mask & peak
        sat = frame.sat_rtt_ms[peak_mask & has_sat]
        if len(sat) < 10:
            continue
        country_of_beam[int(beam_idx)] = frame.countries[country_idx]
        volumes[int(beam_idx)] = float(volume[peak_mask].sum())
        medians[int(beam_idx)] = float(np.median(sat))
    max_volume = max(volumes.values()) if volumes else 1.0
    rows = [
        (
            frame.beams[beam_idx],
            country_of_beam[beam_idx],
            medians[beam_idx],
            volumes[beam_idx] / max_volume,
        )
        for beam_idx in sorted(volumes)
    ]
    return Fig8bResult(rows=rows)


def render(result_a: Fig8aResult, result_b: Optional[Fig8bResult] = None) -> str:
    rows = []
    for country, periods in result_a.samples.items():
        for period in ("night", "peak"):
            q25, med, q75 = result_a.quartiles_ms(country, period)
            rows.append(
                (
                    country,
                    period,
                    f"{med:.0f}",
                    f"{q25:.0f}/{q75:.0f}",
                    f"{result_a.fraction_under(country, period, 1000.0) * 100:.0f} %",
                    f"{result_a.fraction_over(country, period, 2000.0) * 100:.0f} %",
                )
            )
    part_a = format_table(
        ["Country", "Period", "Median ms", "Q1/Q3", "<1 s", ">2 s"],
        rows,
        title="Figure 8a: satellite RTT night vs peak",
    )
    if result_b is None:
        return part_a
    part_b = format_table(
        ["Beam", "Country", "Median ms", "Norm. util"],
        [(b, c, f"{m:.0f}", f"{u:.2f}") for b, c, m, u in result_b.rows],
        title="Figure 8b: per-beam median satellite RTT",
    )
    return part_a + "\n\n" + part_b


def _compute_both(frame: FlowFrame) -> Tuple[Fig8aResult, Fig8bResult]:
    """Frame path renders both panels; the rollup path serves 8a only."""
    return compute_fig8a(frame), compute_fig8b(frame)


def _render_either(result) -> str:
    if isinstance(result, tuple):
        return render(*result)
    return render(result)


from repro.analysis import registry as _registry

_registry.register(
    name="fig8",
    title="Satellite RTT night vs peak (+ per-beam)",
    module=__name__,
    columns=("country_idx", "hour_utc", "beam_idx", "sat_rtt_ms", "bytes_up", "bytes_down"),
    compute_frame=_compute_both,
    compute_rollup=from_rollup,
    render=_render_either,
)
