"""Calibration scorecard: every headline paper number vs the dataset.

One entry per quantitative claim the reproduction targets (DESIGN.md
§5), each with the paper value, the measured value, a tolerance, and a
pass flag — printable as a table and consumable by tests and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.analysis.aggregate import format_table
from repro.analysis.dataset import FlowFrame
from repro.analysis.source import FrameSource
from repro.analysis.reports import (
    fig2_country,
    fig4_diurnal,
    fig5_volumes,
    fig8_satellite_rtt,
    fig9_ground_rtt,
    fig10_dns,
    fig12_video_qoe,
    table1_protocols,
)


@dataclass(frozen=True)
class Check:
    """One paper-vs-measured comparison."""

    name: str
    paper: float
    measured: float
    tolerance: float
    unit: str = ""

    @property
    def passed(self) -> bool:
        return abs(self.measured - self.paper) <= self.tolerance

    @property
    def error(self) -> float:
        return self.measured - self.paper


@dataclass
class Scorecard:
    """The full calibration scorecard."""

    checks: List[Check]

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def total(self) -> int:
        return len(self.checks)

    def failing(self) -> List[Check]:
        return [c for c in self.checks if not c.passed]

    def render(self) -> str:
        rows = [
            (
                c.name,
                f"{c.paper:g}{c.unit}",
                f"{c.measured:.2f}{c.unit}",
                f"±{c.tolerance:g}",
                "ok" if c.passed else "MISS",
            )
            for c in self.checks
        ]
        table = format_table(
            ["Claim", "Paper", "Measured", "Tol", ""],
            rows,
            title="Calibration scorecard (paper vs measured)",
        )
        return table + f"\n{self.passed}/{self.total} checks within tolerance"


def _headline_checks(t1, f2, f4, f5, f8, f9, f10, f12) -> List[Check]:
    """The claim list, shared by the frame and rollup scorecards.

    Each argument is a computed report result; the frame results and
    their rollup views expose the same query surface, so one check
    builder serves both ``repro scorecard`` and the live ``/scorecard``
    endpoint. ``f12`` is ``None`` for QoE-less captures, keeping the
    original check list byte-for-byte.
    """
    checks: List[Check] = []

    for label, paper, tol in (
        ("tcp/https", 56.0, 8.0),
        ("udp/quic", 19.6, 6.0),
        ("tcp/http", 12.1, 6.0),
        ("tcp/other", 7.0, 5.0),
        ("udp/other", 4.2, 3.0),
        ("udp/rtp", 1.1, 1.5),
    ):
        checks.append(
            Check(f"Table1 {label} volume share", paper, t1.share(label), tol, " %")
        )

    congo_vol, congo_cust = f2.shares("Congo")
    spain_vol, spain_cust = f2.shares("Spain")
    checks.append(Check("Fig2 Congo customer share", 20.0, congo_cust, 4.0, " %"))
    checks.append(Check("Fig2 Congo volume share", 27.0, congo_vol, 10.0, " %"))
    checks.append(Check("Fig2 Spain customer share", 16.0, spain_cust, 4.0, " %"))
    checks.append(Check("Fig2 Spain volume share", 10.0, spain_vol, 6.0, " %"))

    checks.append(Check("Fig4 Congo peak hour (UTC)", 9.0, f4.peak_hour_utc("Congo"), 2.0, "h"))
    checks.append(Check("Fig4 Spain peak hour (UTC)", 19.0, f4.peak_hour_utc("Spain"), 2.0, "h"))

    checks.append(
        Check("Fig5a Europe <250 flows/day", 55.0, f5.idle_fraction("Spain") * 100, 12.0, " %")
    )

    checks.append(
        Check(
            "Fig8a Spain night <1s",
            82.0,
            f8.fraction_under("Spain", "night", 1000.0) * 100,
            9.0,
            " %",
        )
    )
    checks.append(
        Check(
            "Fig8a Congo night >2s",
            20.0,
            f8.fraction_over("Congo", "night", 2000.0) * 100,
            10.0,
            " %",
        )
    )
    minimum = min(f8.minimum_ms(c) for c in f8.samples)
    checks.append(Check("Fig8a satellite RTT floor", 550.0, minimum, 40.0, " ms"))

    eu_below = np.mean(
        [f9.fraction_below(c, 40.0) for c in ("Spain", "UK", "Ireland")]
    )
    checks.append(Check("Fig9 Europe ground RTT <40ms", 80.0, eu_below * 100, 12.0, " %"))

    for resolver, paper in (
        ("Operator-EU", 3.98),
        ("Google", 21.98),
        ("Nigerian", 119.98),
        ("Baidu", 355.97),
        ("114DNS", 109.98),
    ):
        checks.append(
            Check(
                f"Fig10 {resolver} median response",
                paper,
                f10.median_response_ms.get(resolver, float("nan")),
                paper * 0.25,
                " ms",
            )
        )
    checks.append(
        Check("Fig10 Google share in Congo", 85.68, f10.share("Google", "Congo"), 14.0, " %")
    )

    if f12 is not None:
        n = f12.total_sessions()
        rebuf = float(f12.rebuffer_sum.sum() / n) * 100.0
        level = float(f12.level_sum.sum() / n)
        checks.append(Check("Fig12 mean rebuffer ratio", 1.0, rebuf, 5.0, " %"))
        checks.append(Check("Fig12 mean resolution level", 2.5, level, 1.5, ""))

    return checks


def build_scorecard(frame: FlowFrame) -> Scorecard:
    """Evaluate the headline claims against ``frame``.

    Reports with a frame path read the flows; the exact ones (Table 1,
    Figures 2 and 12) read one fold of the frame.
    """
    rollup = FrameSource(frame).to_rollup()
    # Figure 12 (extension) — only when the capture carries video
    # sessions (traffic.qoe enabled); QoE-less captures keep the
    # original check list byte-for-byte.
    f12 = (
        fig12_video_qoe.from_rollup(rollup)
        if np.any(frame.session_id >= 0)
        else None
    )
    return Scorecard(
        checks=_headline_checks(
            table1_protocols.from_rollup(rollup),
            fig2_country.from_rollup(rollup),
            fig4_diurnal.compute(frame),
            fig5_volumes.compute(frame),
            fig8_satellite_rtt.compute_fig8a(frame),
            fig9_ground_rtt.compute(frame),
            fig10_dns.compute(frame),
            f12,
        )
    )


def build_scorecard_rollup(rollup) -> Scorecard:
    """The scorecard from streaming sketches — the live ``/scorecard``.

    Same claim list as :func:`build_scorecard`, evaluated through each
    report's ``from_rollup`` path, so a running capture can grade
    itself mid-flight without materializing flows. Quantile-backed
    checks interpolate inside histogram bins (the documented rollup
    tolerance), which the check tolerances absorb.
    """
    f12 = (
        fig12_video_qoe.from_rollup(rollup)
        if int(rollup.qoe_sessions.sum()) > 0
        else None
    )
    return Scorecard(
        checks=_headline_checks(
            table1_protocols.from_rollup(rollup),
            fig2_country.from_rollup(rollup),
            fig4_diurnal.from_rollup(rollup),
            fig5_volumes.from_rollup(rollup),
            fig8_satellite_rtt.from_rollup(rollup),
            fig9_ground_rtt.from_rollup(rollup),
            fig10_dns.from_rollup(rollup),
            f12,
        )
    )


def render_delay_comparison(
    frame_a: FlowFrame,
    frame_b: FlowFrame,
    label_a: str = "A",
    label_b: str = "B",
) -> str:
    """Side-by-side satellite-delay profile of two captures.

    The GEO-vs-LEO view of the delay refactor: run the same workload
    under two scenarios (``repro scorecard --compare leo-starlink``)
    and diff the satellite-RTT floor, the night/peak medians, and the
    fig8b time-of-day spread — the numbers the constellation engine is
    supposed to move while everything else stays put.
    """
    from repro.analysis.reports import fig8b_rtt_timeseries

    a8 = fig8_satellite_rtt.compute_fig8a(frame_a)
    b8 = fig8_satellite_rtt.compute_fig8a(frame_b)
    a8b = fig8b_rtt_timeseries.compute(frame_a)
    b8b = fig8b_rtt_timeseries.compute(frame_b)

    def floor(result) -> float:
        return min(result.minimum_ms(c) for c in result.samples)

    def median(result, country: str, period: str) -> float:
        return float(result.quartiles_ms(country, period)[1])

    def max_spread(result) -> float:
        return max(result.spread_ms(c) for c in result.medians_ms)

    metrics = [
        ("Satellite RTT floor (ms)", floor(a8), floor(b8)),
        ("Spain night median (ms)", median(a8, "Spain", "night"), median(b8, "Spain", "night")),
        ("Spain peak median (ms)", median(a8, "Spain", "peak"), median(b8, "Spain", "peak")),
        ("Congo peak median (ms)", median(a8, "Congo", "peak"), median(b8, "Congo", "peak")),
        (
            "Spain night <1 s (%)",
            a8.fraction_under("Spain", "night", 1000.0) * 100,
            b8.fraction_under("Spain", "night", 1000.0) * 100,
        ),
        ("Max time-of-day spread (ms)", max_spread(a8b), max_spread(b8b)),
    ]
    rows = [
        (name, f"{va:.0f}", f"{vb:.0f}", f"{vb - va:+.0f}")
        for name, va, vb in metrics
    ]
    return format_table(
        ["Metric", label_a, label_b, "Δ"],
        rows,
        title=f"Satellite delay comparison: {label_a} vs {label_b}",
    )


def render_qoe_comparison(
    frame_a: FlowFrame,
    frame_b: FlowFrame,
    label_a: str = "A",
    label_b: str = "B",
) -> str:
    """Side-by-side video-QoE profile of two captures.

    The shaping-policy view of the session model: run the same video
    workload with and without an operator shaper
    (``repro scorecard --scenario video-streaming
    --compare shaped-vs-unshaped``) and diff the session-weighted QoE
    aggregates — the shaper should trade resolution level for a bounded
    rebuffer ratio, not silently wreck both.
    """
    a12 = fig12_video_qoe.from_rollup(FrameSource(frame_a).to_rollup())
    b12 = fig12_video_qoe.from_rollup(FrameSource(frame_b).to_rollup())

    def agg(result, sums) -> float:
        n = result.total_sessions()
        return float(sums.sum() / n) if n else float("nan")

    metrics = [
        (
            "Video sessions",
            float(a12.total_sessions()),
            float(b12.total_sessions()),
            "{:.0f}",
        ),
        (
            "Mean rebuffer ratio (%)",
            agg(a12, a12.rebuffer_sum) * 100.0,
            agg(b12, b12.rebuffer_sum) * 100.0,
            "{:.2f}",
        ),
        (
            "Mean resolution level",
            agg(a12, a12.level_sum),
            agg(b12, b12.level_sum),
            "{:.2f}",
        ),
        (
            "Mean switches/session",
            agg(a12, a12.switch_sum),
            agg(b12, b12.switch_sum),
            "{:.2f}",
        ),
    ]
    rows = [
        (name, fmt.format(va), fmt.format(vb), f"{vb - va:+.2f}")
        for name, va, vb, fmt in metrics
    ]
    return format_table(
        ["Metric", label_a, label_b, "Δ"],
        rows,
        title=f"Video QoE comparison: {label_a} vs {label_b}",
    )
