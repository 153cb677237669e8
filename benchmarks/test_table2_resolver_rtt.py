"""Benchmark: Table 2 (and appendix Tables 4–5) — ground RTT per
domain × resolver × country."""

import pytest

from repro.analysis import claims
from repro.analysis.reports import table2_resolver_rtt
from repro.analysis.source import FrameSource


@pytest.mark.benchmark(group="table2")
def test_table2_resolver_rtt(benchmark, frame, save_result):
    # fold and read, the way `repro report` runs it from a frame
    result = benchmark(
        lambda: table2_resolver_rtt.from_rollup(
            FrameSource(frame).to_rollup(),
            ("UK", "Nigeria", "Congo", "South Africa"),
        )
    )
    save_result("table2_resolver_rtt", table2_resolver_rtt.render(result))
    claims.check("table2", result)
