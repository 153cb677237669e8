"""Benchmark: Figure 5 — per-customer daily flows/volume CCDFs."""

import pytest

from repro.analysis import claims
from repro.analysis.reports import fig5_volumes


@pytest.mark.benchmark(group="fig5")
def test_fig5_volume_ccdfs(benchmark, frame, save_result):
    result = benchmark(fig5_volumes.compute, frame)
    save_result("fig5_volumes", fig5_volumes.render(result))
    claims.check("fig5", result)
