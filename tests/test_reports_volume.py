"""Report tests: Table 1, Figures 2–5 (volume and usage)."""

import numpy as np
import pytest

from repro.analysis.reports import (
    fig2_country,
    fig3_protocol_country,
    fig4_diurnal,
    fig5_volumes,
    table1_protocols,
)
from repro.analysis.stats import ccdf


def test_table1_shares_sum_to_100(small_rollup):
    result = table1_protocols.from_rollup(small_rollup)
    assert sum(result.shares.values()) == pytest.approx(100.0)


def test_table1_matches_paper_shape(small_rollup):
    """Who dominates and in what order (Table 1)."""
    result = table1_protocols.from_rollup(small_rollup)
    assert result.share("tcp/https") == pytest.approx(56.0, abs=8.0)
    assert result.share("udp/quic") == pytest.approx(19.6, abs=6.0)
    assert result.share("tcp/https") > result.share("udp/quic") > result.share("tcp/http")
    assert result.share("udp/dns") < 0.1  # "< 0.1 %"
    assert result.share("udp/rtp") < 5.0
    assert "Measured" in table1_protocols.render(result)


def test_fig2_shares_sum(small_rollup):
    result = fig2_country.from_rollup(small_rollup)
    assert sum(v for _, v, _ in result.rows) == pytest.approx(100.0)
    assert sum(c for _, _, c in result.rows) == pytest.approx(100.0)


def test_fig2_congo_over_indexes_spain_under(small_rollup):
    """The paper's headline: Congo's volume share exceeds its customer
    share; Spain's is the other way around."""
    result = fig2_country.from_rollup(small_rollup)
    assert result.over_indexes("Congo")
    assert not result.over_indexes("Spain")
    congo_vol, congo_cust = result.shares("Congo")
    assert congo_vol > 20.0
    assert result.rows[0][0] == "Congo"  # biggest volume contributor


def mean_daily_download_mb(frame, country: str) -> float:
    """Average download volume per customer-day (paper: Congo ≈600 MB,
    Spain ≈170 MB)."""
    mask = frame.country_mask(country)
    customers = len(np.unique(frame.customer_id[mask]))
    days = len(np.unique(frame.day[mask]))
    return float(frame.bytes_down[mask].sum() / customers / days / 1e6)


def test_fig2_per_customer_volume_gap(small_frame):
    congo = mean_daily_download_mb(small_frame, "Congo")
    spain = mean_daily_download_mb(small_frame, "Spain")
    assert congo > 2 * spain  # Africans consume much more per subscription


def test_fig3_german_vpn_anomaly(small_rollup):
    result = fig3_protocol_country.from_rollup(small_rollup)
    if "Germany" in result.shares:
        german_other = result.share("Germany", "tcp/other")
        spain_other = result.shares.get("Spain", {}).get("tcp/other", 0.0)
        assert german_other > spain_other


def test_fig3_rows_sum_to_100(small_rollup):
    result = fig3_protocol_country.from_rollup(small_rollup)
    assert len(result.shares) == 10
    for country, shares in result.shares.items():
        assert sum(shares.values()) == pytest.approx(100.0), country


def test_fig4_europe_evening_africa_morning(small_frame):
    result = fig4_diurnal.compute(small_frame)
    # Europe: evening prime time 17–20 UTC
    for country in ("Spain", "UK"):
        assert 16 <= result.peak_hour_utc(country) <= 21, country
    # Congo: morning peak around 9:00 UTC
    assert 7 <= result.peak_hour_utc("Congo") <= 12
    # African morning level far above Europe's
    assert result.morning_level("Congo") > result.morning_level("UK") + 0.2


def test_fig4_africa_higher_night_floor(small_frame):
    result = fig4_diurnal.compute(small_frame)
    africa = np.mean([result.night_floor(c) for c in ("Congo", "Nigeria")])
    europe = np.mean([result.night_floor(c) for c in ("Spain", "UK")])
    assert africa > europe


def test_fig4_curves_normalized(small_frame):
    result = fig4_diurnal.compute(small_frame)
    for country, curve in result.curves.items():
        assert curve.max() == pytest.approx(1.0)
        assert len(curve) == 24


def test_fig5_european_idle_knee(small_frame):
    """>50 % of European customers under 250 flows/day (Section 4)."""
    result = fig5_volumes.compute(small_frame)
    europe = np.mean([result.idle_fraction(c) for c in ("Spain", "UK", "Ireland")])
    assert europe > 0.45
    for country in ("Spain", "UK", "Ireland"):
        assert result.idle_fraction(country) > 0.38, country
    for country in ("Congo", "Nigeria"):
        assert result.idle_fraction(country) < 0.35, country


def test_fig5_african_flow_tail(small_frame):
    """African customers generate several times more daily flows."""
    result = fig5_volumes.compute(small_frame)
    assert result.median_flows("Congo") > 3 * result.median_flows("Spain")
    x_congo, _ = ccdf(result.flow_counts["Congo"])
    x_spain, _ = ccdf(result.flow_counts["Spain"])
    assert np.quantile(x_congo, 0.90) > 3 * np.quantile(x_spain, 0.90)


def test_fig5_heavy_hitters_africa_vs_europe(small_frame):
    result = fig5_volumes.compute(small_frame)
    assert result.heavy_downloader_pct("Congo") > result.heavy_downloader_pct("Spain")
    assert result.heavy_uploader_pct("Congo") > 4.0
    assert result.heavy_uploader_pct("Nigeria") > result.heavy_uploader_pct("Ireland")


def test_renders_contain_tables(small_frame, small_rollup):
    assert "Figure 2" in fig2_country.render(fig2_country.from_rollup(small_rollup))
    assert "Figure 3" in fig3_protocol_country.render(fig3_protocol_country.from_rollup(small_rollup))
    assert "Figure 4" in fig4_diurnal.render(fig4_diurnal.compute(small_frame))
    assert "Figure 5" in fig5_volumes.render(fig5_volumes.compute(small_frame))
