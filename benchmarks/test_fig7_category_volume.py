"""Benchmark: Figure 7 — per-category daily volume boxplots."""

import pytest

from repro.analysis import claims
from repro.analysis.reports import fig7_service_volume


@pytest.mark.benchmark(group="fig7")
def test_fig7_category_volumes(benchmark, frame, save_result):
    result = benchmark(fig7_service_volume.compute, frame)
    save_result("fig7_service_volume", fig7_service_volume.render(result))
    claims.check("fig7", result)
