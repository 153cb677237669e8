"""Tests for the shared aggregation primitives and the rollup views
the exact reports read (protocol shares, per-country breakdown)."""

import numpy as np
import pytest

from repro.analysis.aggregate import (
    customer_day_bytes,
    customer_day_flow_counts,
    dominant_resolver_per_customer,
    format_table,
    hourly_volume_utc,
    local_hour_of,
)
from repro.analysis.reports import fig2_country, fig3_protocol_country, table1_protocols
from repro.analysis.source import FrameSource
from repro.internet.geo import COUNTRIES


def test_protocol_volume_share_sums_to_100(small_rollup):
    shares = table1_protocols.from_rollup(small_rollup).shares
    assert sum(shares.values()) == pytest.approx(100.0)
    assert all(v >= 0 for v in shares.values())


def test_protocol_volume_share_with_mask(small_frame, small_rollup):
    shares = fig3_protocol_country.from_rollup(small_rollup).shares["Germany"]
    assert sum(shares.values()) == pytest.approx(100.0)
    empty = small_frame.filter(np.zeros(len(small_frame), dtype=bool))
    shares = table1_protocols.from_rollup(FrameSource(empty).to_rollup()).shares
    assert all(v == 0.0 for v in shares.values())


def test_country_breakdown_sorted_and_complete(small_rollup):
    rows = fig2_country.from_rollup(small_rollup).rows
    volumes = [v for _, v, _ in rows]
    assert volumes == sorted(volumes, reverse=True)
    assert sum(volumes) == pytest.approx(100.0)
    assert sum(c for *_, c in rows) == pytest.approx(100.0)


def test_top_countries(small_rollup):
    top = list(fig3_protocol_country.from_rollup(small_rollup, top=5).shares)
    assert len(top) == 5
    assert top[0] == "Congo"


def test_hourly_volume_normalized(small_frame):
    curve = hourly_volume_utc(small_frame, "Spain")
    assert curve.max() == pytest.approx(1.0)
    assert len(curve) == 24
    non_robust = hourly_volume_utc(small_frame, "Spain", robust=False)
    assert non_robust.max() == pytest.approx(1.0)


def test_local_hour_of_shifts_by_longitude(small_frame):
    local = local_hour_of(small_frame)
    assert np.all((local >= 0) & (local < 24))
    kenya_mask = small_frame.country_mask("Kenya")
    if kenya_mask.any():
        shift = (local[kenya_mask] - small_frame.hour_utc[kenya_mask]) % 24
        assert np.allclose(shift, COUNTRIES["Kenya"].lon_deg / 15.0, atol=0.01)


def test_customer_day_units(small_frame):
    counts = customer_day_flow_counts(small_frame, "UK")
    assert counts.min() >= 1
    active = customer_day_bytes(small_frame, "UK", "down", active_only=True)
    everyone = customer_day_bytes(small_frame, "UK", "down", active_only=False)
    assert len(active) <= len(everyone)
    with pytest.raises(ValueError):
        customer_day_bytes(small_frame, "UK", direction="sideways")


def test_customers_per_country_totals(small_frame, small_rollup):
    per_country = small_rollup.customers_c()
    assert per_country.sum() == len(np.unique(small_frame.customer_id))


def test_dominant_resolver_majority(small_frame):
    resolver_of = dominant_resolver_per_customer(small_frame)
    assert len(resolver_of) > 100
    assert all(idx >= 0 for idx in resolver_of.values())


def test_format_table_alignment():
    table = format_table(["a", "longheader"], [("x", 1), ("yy", 22)], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "longheader" in lines[1]
    widths = {len(line) for line in lines[1:]}
    assert len(widths) <= 2  # header/sep/rows aligned (rows may trail-strip)
