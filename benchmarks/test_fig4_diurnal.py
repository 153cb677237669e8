"""Benchmark: Figure 4 — daily traffic trends per country."""

import pytest

from repro.analysis import claims
from repro.analysis.reports import fig4_diurnal


@pytest.mark.benchmark(group="fig4")
def test_fig4_diurnal_patterns(benchmark, frame, save_result):
    result = benchmark(fig4_diurnal.compute, frame)
    save_result("fig4_diurnal", fig4_diurnal.render(result))
    claims.check("fig4", result)
