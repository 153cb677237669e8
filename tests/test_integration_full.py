"""End-to-end integration: every report over one capture, plus
cross-report consistency checks."""

import numpy as np
import pytest

from repro.analysis.reports import (
    appendix_ground_rtt,
    fig2_country,
    fig3_protocol_country,
    fig4_diurnal,
    fig5_volumes,
    fig6_service_popularity,
    fig7_service_volume,
    fig8_satellite_rtt,
    fig9_ground_rtt,
    fig10_dns,
    fig11_throughput,
    table1_protocols,
    table2_resolver_rtt,
)
from repro.analysis.validation import build_scorecard


def test_all_reports_run_and_render(small_frame, small_rollup):
    """Every report module computes and renders without error."""
    outputs = [
        table1_protocols.render(table1_protocols.from_rollup(small_rollup)),
        fig2_country.render(fig2_country.from_rollup(small_rollup)),
        fig3_protocol_country.render(fig3_protocol_country.from_rollup(small_rollup)),
        fig4_diurnal.render(fig4_diurnal.compute(small_frame)),
        fig5_volumes.render(fig5_volumes.compute(small_frame)),
        fig6_service_popularity.render(fig6_service_popularity.from_rollup(small_rollup)),
        fig7_service_volume.render(fig7_service_volume.compute(small_frame)),
        fig8_satellite_rtt.render(
            fig8_satellite_rtt.compute_fig8a(small_frame),
            fig8_satellite_rtt.compute_fig8b(small_frame),
        ),
        fig9_ground_rtt.render(fig9_ground_rtt.compute(small_frame)),
        fig10_dns.render(fig10_dns.compute(small_frame)),
        table2_resolver_rtt.render(table2_resolver_rtt.from_rollup(small_rollup)),
        fig11_throughput.render(fig11_throughput.compute(small_frame)),
        appendix_ground_rtt.render(
            appendix_ground_rtt.compute(small_frame), "Congo"
        ),
    ]
    assert all(isinstance(text, str) and len(text) > 50 for text in outputs)


def test_cross_report_consistency(small_frame, small_rollup):
    """Different reports derived from the same flows must agree."""
    t1 = table1_protocols.from_rollup(small_rollup)
    f3 = fig3_protocol_country.from_rollup(small_rollup)
    f2 = fig2_country.from_rollup(small_rollup)

    # Table 1 is the volume-weighted average of Figure 3's rows.
    volume_by_country = {name: vol for name, vol, _ in f2.rows}
    weighted_https = sum(
        f3.share(country, "tcp/https") * volume_by_country[country]
        for country in f3.shares
    ) / sum(volume_by_country[country] for country in f3.shares)
    assert weighted_https == pytest.approx(t1.share("tcp/https"), abs=4.0)

    # Figure 9 medians must be consistent with Table 2's cells: the
    # operator-resolver apple cell for the UK sits near the UK median.
    f9 = fig9_ground_rtt.compute(small_frame)
    t2 = table2_resolver_rtt.from_rollup(small_rollup, min_samples=3)
    uk_cell = t2.rtt("UK", "Operator-EU", "captive.apple.com")
    if uk_cell is not None:
        assert abs(uk_cell - f9.median_ms("UK")) < 30.0


def test_satellite_and_ground_rtt_separated(small_frame):
    """The probe's two RTT estimators measure different segments: the
    satellite column must dominate the ground column everywhere."""
    has_sat = np.isfinite(small_frame.sat_rtt_ms)
    sat = small_frame.sat_rtt_ms[has_sat].astype(np.float64)
    ground = small_frame.ground_rtt_ms[has_sat].astype(np.float64)
    assert np.median(sat) > 5 * np.median(ground)
    assert sat.min() > 500.0


def test_scorecard_summary(small_frame):
    scorecard = build_scorecard(small_frame)
    # Document the expected calibration quality at fixture scale.
    assert scorecard.passed / scorecard.total > 0.8, scorecard.render()
