"""Benchmark: Figure 2 — per-country volume and customer shares."""

import pytest

from repro.analysis import claims
from repro.analysis.reports import fig2_country
from repro.analysis.source import FrameSource


@pytest.mark.benchmark(group="fig2")
def test_fig2_country_breakdown(benchmark, frame, save_result):
    # fold and read, the way `repro report` runs it from a frame
    result = benchmark(
        lambda: fig2_country.from_rollup(FrameSource(frame).to_rollup())
    )
    daily = result.daily_download_mb
    save_result(
        "fig2_country",
        fig2_country.render(result)
        + f"\nMean daily download: Congo {daily['Congo']:.0f} MB (paper ~600), "
        f"Spain {daily['Spain']:.0f} MB (paper ~170)",
    )
    claims.check("fig2", result)
