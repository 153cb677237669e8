"""Benchmark: Figure 3 — protocol share per country."""

import pytest

from repro.analysis import claims
from repro.analysis.reports import fig3_protocol_country
from repro.analysis.source import FrameSource


@pytest.mark.benchmark(group="fig3")
def test_fig3_protocol_share_per_country(benchmark, frame, save_result):
    # fold and read, the way `repro report` runs it from a frame
    result = benchmark(
        lambda: fig3_protocol_country.from_rollup(FrameSource(frame).to_rollup())
    )
    save_result("fig3_protocol_country", fig3_protocol_country.render(result))
    claims.check("fig3", result)
