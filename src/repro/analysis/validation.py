"""Calibration scorecard: every headline paper number vs the dataset.

One row per headline claim of :mod:`repro.analysis.claims` (DESIGN.md
§5), each with the paper value, the measured value, a tolerance, and a
pass flag — printable as a table and consumable by tests and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis import claims
from repro.analysis.aggregate import format_table
from repro.analysis.dataset import FlowFrame
from repro.analysis.reports import fig8_satellite_rtt, fig12_video_qoe
from repro.analysis.source import FrameSource


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


def _scorecard(results) -> Scorecard:
    return Scorecard(
        checks=[
            Check(claim.name, claim.paper, value, claim.bound, claim.unit)
            for claim, value in claims.grade(claims.HEADLINE, results)
        ]
    )


def build_scorecard(frame: FlowFrame) -> Scorecard:
    """Evaluate the headline claims against ``frame``.

    Reports with a frame path read the flows; the exact ones (Table 1,
    Figures 2 and 12) read one fold of the frame.
    """
    rollup = FrameSource(frame).to_rollup()
    return _scorecard(claims.measure(claims.HEADLINE, rollup, frame))


def build_scorecard_rollup(rollup) -> Scorecard:
    """The scorecard from streaming sketches — the live ``/scorecard``.

    Same claims as :func:`build_scorecard`, evaluated through each
    report's ``from_rollup`` path, so a running capture can grade
    itself mid-flight without materializing flows. Quantile-backed
    checks interpolate inside histogram bins (the documented rollup
    tolerance), which the check tolerances absorb.
    """
    return _scorecard(claims.measure(claims.HEADLINE, rollup))


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
