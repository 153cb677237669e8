"""Benchmark: Table 1 — protocol volume breakdown."""

import pytest

from repro.analysis.reports import table1_protocols
from repro.analysis.source import FrameSource


@pytest.mark.benchmark(group="table1")
def test_table1_protocol_breakdown(benchmark, frame, save_result):
    # fold and read, the way `repro report` runs it from a frame
    result = benchmark(
        lambda: table1_protocols.from_rollup(FrameSource(frame).to_rollup())
    )
    save_result("table1_protocols", table1_protocols.render(result))

    # Shape assertions: ordering and magnitudes of Table 1.
    assert result.share("tcp/https") == pytest.approx(56.0, abs=8.0)
    assert result.share("udp/quic") == pytest.approx(19.6, abs=6.0)
    assert result.share("tcp/http") == pytest.approx(12.1, abs=6.0)
    assert result.share("tcp/other") == pytest.approx(7.0, abs=5.0)
    assert result.share("udp/dns") < 0.1
    assert (
        result.share("tcp/https")
        > result.share("udp/quic")
        > result.share("tcp/http")
        > result.share("udp/rtp")
    )
