"""Benchmark: Figure 6 — service-popularity heatmap."""

import numpy as np
import pytest

from repro.analysis.reports import fig6_service_popularity
from repro.analysis.source import FrameSource


@pytest.mark.benchmark(group="fig6")
def test_fig6_service_popularity(benchmark, frame, save_result):
    # fold and read, the way `repro report` runs it from a frame
    result = benchmark(
        lambda: fig6_service_popularity.from_rollup(FrameSource(frame).to_rollup())
    )
    save_result("fig6_service_popularity", fig6_service_popularity.render(result))

    # Mean absolute error vs the published heatmap stays small.
    errors = []
    for service, row in fig6_service_popularity.PAPER_MATRIX.items():
        for country, paper in row.items():
            measured = result.popularity(service, country)
            errors.append(abs(measured - paper))
    assert np.mean(errors) < 8.0

    # Headline orderings of Section 5.
    assert result.popularity("Whatsapp", "Congo") > 45  # chat rivals Google
    assert result.popularity("Wechat", "Congo") > result.popularity("Wechat", "Spain")
    assert result.popularity("Netflix", "Ireland") > result.popularity("Netflix", "Congo")
    assert result.popularity("Primevideo", "UK") > result.popularity("Primevideo", "Nigeria")
    # TikTok trails Instagram by a few points everywhere.
    for country in ("Congo", "Spain", "UK"):
        assert result.popularity("Tiktok", country) < result.popularity("Instagram", country) + 8
