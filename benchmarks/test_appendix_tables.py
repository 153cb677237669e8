"""Benchmark: appendix Tables 4–5 — ground RTT per second-level domain
and resolver for Congo/South Africa and Nigeria/U.K."""

import pytest

from repro.analysis import claims
from repro.analysis.reports import appendix_ground_rtt


@pytest.mark.benchmark(group="appendix")
def test_appendix_tables_4_and_5(benchmark, frame, save_result):
    result = benchmark(
        appendix_ground_rtt.compute,
        frame,
        ("Congo", "South Africa", "Nigeria", "UK"),
    )
    text = "\n\n".join(
        appendix_ground_rtt.render(result, country)
        for country in ("Congo", "South Africa", "Nigeria", "UK")
    )
    save_result("appendix_tables", text)
    claims.check("appendix", result)
