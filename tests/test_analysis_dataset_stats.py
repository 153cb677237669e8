"""Tests for the columnar dataset and statistics helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.dataset import FlowFrame
from repro.analysis.stats import (
    boxplot_stats,
    ccdf,
    ccdf_at,
    cdf_at,
    quantiles,
)


# --- stats ------------------------------------------------------------------


def test_ccdf_basic():
    x, p = ccdf(np.array([1.0, 2.0, 3.0, 4.0]))
    assert list(x) == [1.0, 2.0, 3.0, 4.0]
    assert p[0] == 0.75
    assert p[-1] == 0.0


def test_ccdf_empty_and_nan():
    x, p = ccdf(np.array([]))
    assert len(x) == 0
    x, p = ccdf(np.array([np.nan, 1.0]))
    assert len(x) == 1


def test_cdf_ccdf_at():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    assert cdf_at(values, 2.5) == 0.5
    assert ccdf_at(values, 2.5) == 0.5
    assert cdf_at(values, 10.0) == 1.0
    assert np.isnan(cdf_at(np.array([]), 1.0))


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
def test_ccdf_properties(values):
    x, p = ccdf(np.array(values))
    assert np.all(np.diff(x) >= 0)          # x sorted
    assert np.all(np.diff(p) <= 1e-12)      # p non-increasing
    assert p[-1] == 0.0
    assert np.all((0.0 <= p) & (p <= 1.0))


def test_quantiles_match_numpy(rng):
    values = rng.normal(10, 2, 500)
    ours = quantiles(values, (0.25, 0.5, 0.75))
    theirs = np.quantile(values, (0.25, 0.5, 0.75))
    assert np.allclose(ours, theirs)


def test_boxplot_stats_ordering(rng):
    stats = boxplot_stats(rng.lognormal(0, 1, 2000))
    assert stats.p5 <= stats.q1 <= stats.median <= stats.q3 <= stats.p95
    assert stats.n == 2000
    empty = boxplot_stats(np.array([]))
    assert empty.n == 0 and np.isnan(empty.median)


# --- FlowFrame ----------------------------------------------------------------


def test_filter_preserves_pools(small_frame):
    subset = small_frame.filter(small_frame.country_mask("Spain"))
    assert subset.countries == small_frame.countries
    assert len(subset) < len(small_frame)
    assert np.all(subset.country_idx == small_frame.countries.index("Spain"))


def test_filter_and_concat_copy_pool_lists(small_frame):
    """Derived frames own fresh pool list objects: mutating one frame's
    pool must never corrupt a sibling's (regression for shared lists)."""
    subset = small_frame.filter(small_frame.country_mask("Spain"))
    assert subset.countries is not small_frame.countries
    assert subset.domains is not small_frame.domains
    subset.countries.append("Atlantis")
    assert "Atlantis" not in small_frame.countries

    congo = small_frame.filter(small_frame.country_mask("Congo"))
    merged = FlowFrame.concat(
        [congo, small_frame.filter(small_frame.country_mask("UK"))]
    )
    assert merged.countries is not congo.countries
    merged.resolvers.append("bogus")
    assert congo.resolvers == small_frame.resolvers


def test_load_npz_coerces_drifted_dtypes(small_frame, tmp_path):
    """Old captures with drifted column dtypes are coerced on load."""
    path = tmp_path / "drifted.npz"
    small_frame.save_npz(path)
    with np.load(path, allow_pickle=True) as data:
        members = {name: data[name] for name in data.files}
    members["bytes_down"] = members["bytes_down"].astype(np.float32)
    members["country_idx"] = members["country_idx"].astype(np.int64)
    np.savez(path, **members)

    loaded = FlowFrame.load_npz(path)
    assert loaded.bytes_down.dtype == FlowFrame.COLUMN_DTYPES["bytes_down"]
    assert loaded.country_idx.dtype == FlowFrame.COLUMN_DTYPES["country_idx"]
    assert np.array_equal(loaded.country_idx, small_frame.country_idx)


def test_customer_day_totals_match_bruteforce(small_frame):
    subset = small_frame.filter(small_frame.country_mask("Ireland"))
    value = subset.bytes_down
    totals = subset.customer_day_totals(value)
    # brute force on a sample of keys
    keys = list(totals)[:20]
    for customer, day in keys:
        mask = (subset.customer_id == customer) & (subset.day == day)
        assert totals[(customer, day)] == pytest.approx(value[mask].sum(), rel=1e-9)


def test_concat_roundtrip(small_frame):
    spain = small_frame.filter(small_frame.country_mask("Spain"))
    congo = small_frame.filter(small_frame.country_mask("Congo"))
    merged = FlowFrame.concat([spain, congo])
    assert len(merged) == len(spain) + len(congo)


def test_concat_rejects_mismatched_pools(small_frame):
    other = FlowFrame.empty()
    with pytest.raises(ValueError):
        FlowFrame.concat([small_frame, other])
    with pytest.raises(ValueError):
        FlowFrame.concat([])


def test_throughput_nan_on_zero_duration(small_frame):
    frame = small_frame.filter(np.arange(len(small_frame)) < 1)
    frame.duration_s[:] = 0.0
    assert np.isnan(frame.download_throughput_bps()[0])


def test_column_length_validation():
    with pytest.raises(ValueError):
        FlowFrame(
            countries=[], beams=[], services=[], domains=[], sites=[], resolvers=[],
            **{
                name: (np.zeros(2) if name == "ts_start" else np.zeros(1))
                for name in (
                    "ts_start", "day", "hour_utc", "customer_id", "country_idx",
                    "subscriber_type", "beam_idx", "l7_idx", "service_true_idx",
                    "domain_idx", "bytes_up", "bytes_down", "duration_s",
                    "sat_rtt_ms", "ground_rtt_ms", "resolver_idx",
                    "dns_response_ms", "site_idx", "plan_down_mbps",
                )
            },
        )
