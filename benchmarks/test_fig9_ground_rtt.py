"""Benchmark: Figure 9 — ground-segment RTT per country."""

import pytest

from repro.analysis import claims
from repro.analysis.reports import fig9_ground_rtt


@pytest.mark.benchmark(group="fig9")
def test_fig9_ground_rtt(benchmark, frame, save_result):
    result = benchmark(fig9_ground_rtt.compute, frame)
    save_result("fig9_ground_rtt", fig9_ground_rtt.render(result))
    claims.check("fig9", result)
