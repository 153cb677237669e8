"""Benchmark: Figure 3 — protocol share per country."""

import pytest

from repro.analysis.reports import fig3_protocol_country
from repro.analysis.source import FrameSource


@pytest.mark.benchmark(group="fig3")
def test_fig3_protocol_share_per_country(benchmark, frame, save_result):
    # fold and read, the way `repro report` runs it from a frame
    result = benchmark(
        lambda: fig3_protocol_country.from_rollup(FrameSource(frame).to_rollup())
    )
    save_result("fig3_protocol_country", fig3_protocol_country.render(result))

    # Germany's VPN anomaly: far more non-web TCP than Mediterranean
    # consumer markets (paper: ~35 %).
    if "Germany" in result.shares:
        assert result.share("Germany", "tcp/other") > 12.0
    # Ireland/U.K. carry more plain HTTP (Sky, Microsoft updates) than
    # African countries.
    for eu in ("Ireland", "UK"):
        if eu in result.shares:
            assert result.share(eu, "tcp/http") > result.share("Congo", "tcp/http")
    # African countries look alike: HTTPS within a narrow band.
    https = [
        result.share(c, "tcp/https")
        for c in ("Congo", "Nigeria", "South Africa")
        if c in result.shares
    ]
    assert max(https) - min(https) < 25.0
