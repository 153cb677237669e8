"""Benchmark: Figure 11 — download throughput per customer."""

import pytest

from repro.analysis import claims
from repro.analysis.reports import fig11_throughput


@pytest.mark.benchmark(group="fig11")
def test_fig11_throughput(benchmark, frame, save_result):
    result = benchmark(fig11_throughput.compute, frame)
    save_result("fig11_throughput", fig11_throughput.render(result))
    claims.check("fig11", result)
