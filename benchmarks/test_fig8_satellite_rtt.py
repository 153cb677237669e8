"""Benchmark: Figure 8 — satellite-segment RTT (night/peak, per beam)."""

import pytest

from repro.analysis import claims
from repro.analysis.reports import fig8_satellite_rtt


@pytest.mark.benchmark(group="fig8")
def test_fig8_satellite_rtt(benchmark, frame, save_result):
    result_a = benchmark(fig8_satellite_rtt.compute_fig8a, frame)
    result_b = fig8_satellite_rtt.compute_fig8b(frame)
    save_result("fig8_satellite_rtt", fig8_satellite_rtt.render(result_a, result_b))
    claims.check("fig8", (result_a, result_b))
