"""Seed robustness: the reproduction's headline shapes must not depend
on one lucky RNG draw."""

import pytest

from repro.analysis.reports import fig8_satellite_rtt, table1_protocols
from repro.analysis.source import FrameSource
from repro.traffic.workload import WorkloadConfig, WorkloadGenerator


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_headline_shapes_across_seeds(seed):
    frame = WorkloadGenerator(
        WorkloadConfig(n_customers=250, days=2, seed=seed)
    ).generate()

    table1 = table1_protocols.from_rollup(FrameSource(frame).to_rollup())
    assert table1.share("tcp/https") > table1.share("udp/quic")
    assert table1.share("udp/dns") < 0.1

    fig8 = fig8_satellite_rtt.compute_fig8a(frame)
    # the floor and the Congo/Spain contrast hold for every seed
    assert fig8.minimum_ms("Spain") > 520.0
    assert fig8.fraction_under("Spain", "night", 1000.0) > 0.65
    assert fig8.fraction_over("Congo", "peak", 2000.0) > fig8.fraction_over(
        "Spain", "peak", 2000.0
    )
