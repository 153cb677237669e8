"""Benchmark: Figure 10 — resolver adoption and response time."""

import pytest

from repro.analysis import claims
from repro.analysis.reports import fig10_dns


@pytest.mark.benchmark(group="fig10")
def test_fig10_dns_resolvers(benchmark, frame, save_result):
    result = benchmark(fig10_dns.compute, frame)
    save_result("fig10_dns", fig10_dns.render(result))
    claims.check("fig10", result)
