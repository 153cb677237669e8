"""Benchmark: Figure 2 — per-country volume and customer shares."""

import numpy as np
import pytest

from repro.analysis.reports import fig2_country
from repro.analysis.source import FrameSource


def mean_daily_download_mb(frame, country: str) -> float:
    """Average download volume per customer-day (paper: Congo ≈600 MB,
    Spain ≈170 MB)."""
    mask = frame.country_mask(country)
    customers = len(np.unique(frame.customer_id[mask]))
    days = len(np.unique(frame.day[mask]))
    return float(frame.bytes_down[mask].sum() / customers / days / 1e6)


@pytest.mark.benchmark(group="fig2")
def test_fig2_country_breakdown(benchmark, frame, save_result):
    # fold and read, the way `repro report` runs it from a frame
    result = benchmark(
        lambda: fig2_country.from_rollup(FrameSource(frame).to_rollup())
    )
    congo_mb = mean_daily_download_mb(frame, "Congo")
    spain_mb = mean_daily_download_mb(frame, "Spain")
    save_result(
        "fig2_country",
        fig2_country.render(result)
        + f"\nMean daily download: Congo {congo_mb:.0f} MB (paper ~600), "
        f"Spain {spain_mb:.0f} MB (paper ~170)",
    )

    # Congo over-indexes (27 % volume on 20 % customers), Spain
    # under-indexes (10 % on 16 %).
    assert result.over_indexes("Congo")
    assert not result.over_indexes("Spain")
    congo_vol, congo_cust = result.shares("Congo")
    assert congo_cust == pytest.approx(20.0, abs=4.0)
    assert congo_vol > congo_cust + 4.0
    # African subscriptions move several times more data each
    assert congo_mb > 2.5 * spain_mb
