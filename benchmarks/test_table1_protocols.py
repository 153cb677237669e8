"""Benchmark: Table 1 — protocol volume breakdown."""

import pytest

from repro.analysis import claims
from repro.analysis.reports import table1_protocols
from repro.analysis.source import FrameSource


@pytest.mark.benchmark(group="table1")
def test_table1_protocol_breakdown(benchmark, frame, save_result):
    # fold and read, the way `repro report` runs it from a frame
    result = benchmark(
        lambda: table1_protocols.from_rollup(FrameSource(frame).to_rollup())
    )
    save_result("table1_protocols", table1_protocols.render(result))
    claims.check("table1", result)
