"""Benchmark: Figure 6 — service-popularity heatmap."""

import pytest

from repro.analysis import claims
from repro.analysis.reports import fig6_service_popularity
from repro.analysis.source import FrameSource


@pytest.mark.benchmark(group="fig6")
def test_fig6_service_popularity(benchmark, frame, save_result):
    # fold and read, the way `repro report` runs it from a frame
    result = benchmark(
        lambda: fig6_service_popularity.from_rollup(FrameSource(frame).to_rollup())
    )
    save_result("fig6_service_popularity", fig6_service_popularity.render(result))
    claims.check("fig6", result)
