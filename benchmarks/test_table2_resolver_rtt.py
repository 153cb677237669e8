"""Benchmark: Table 2 (and appendix Tables 4–5) — ground RTT per
domain × resolver × country."""

import pytest

from repro.analysis.reports import table2_resolver_rtt
from repro.analysis.source import FrameSource


@pytest.mark.benchmark(group="table2")
def test_table2_resolver_rtt(benchmark, frame, save_result):
    # fold and read, the way `repro report` runs it from a frame
    result = benchmark(
        lambda: table2_resolver_rtt.from_rollup(
            FrameSource(frame).to_rollup(),
            ("UK", "Nigeria", "Congo", "South Africa"),
        )
    )
    save_result("table2_resolver_rtt", table2_resolver_rtt.render(result))

    # U.K.: resolver choice barely matters (all cells in Europe).
    uk_cells = [
        result.rtt("UK", resolver, "captive.apple.com")
        for resolver in ("Operator-EU", "Google", "CloudFlare", "Open DNS")
    ]
    uk_cells = [v for v in uk_cells if v is not None]
    assert uk_cells and max(uk_cells) < 45.0

    # Nigeria on the operator resolver stays in Europe…
    op = result.rtt("Nigeria", "Operator-EU", "captive.apple.com")
    assert op is not None and op < 40.0
    # …but the Chinese resolver drags Apple fetches to Asian nodes
    # (paper: 110.4 ms via 114DNS).
    chinese = result.rtt("Nigeria", "114DNS", "play.googleapis.com") or result.rtt(
        "Nigeria", "114DNS", "captive.apple.com"
    )
    assert chinese is not None and chinese == pytest.approx(110.0, rel=0.35)

    # Anycast-served domains are immune to the resolver choice.
    nflx = [
        result.rtt(country, resolver, "*.nflxvideo.net")
        for country in ("UK", "Nigeria")
        for resolver in ("Operator-EU", "Google", "Nigerian", "114DNS")
    ]
    nflx = [v for v in nflx if v is not None]
    assert nflx and max(nflx) < 40.0

    # Appendix flavour: Chinese second-level domains are slow from
    # everywhere (qq.com ≈ 240–255 ms).
    qq = [
        result.rtt(country, resolver, "qq.com")
        for country in ("Congo", "Nigeria")
        for resolver in ("Operator-EU", "Google", "114DNS", "Baidu")
    ]
    qq = [v for v in qq if v is not None]
    assert qq and min(qq) > 180.0
