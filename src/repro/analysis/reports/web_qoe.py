"""Extension — web page-load QoE per country and per technology.

Not a paper figure: the paper points at Deutschmann et al. for SatCom
page-load times and releases the ERRANT model so others can study QoE.
This report closes that loop inside the reproduction: per-country GEO
profiles are fitted from the measured capture and driven through the
page-load emulator, alongside the built-in Starlink/FTTH comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.analysis.aggregate import format_table
from repro.analysis.dataset import FlowFrame
from repro.analysis.stats import BoxplotStats, boxplot_stats
from repro.errant.emulator import Emulator
from repro.errant.model import fit_profile
from repro.errant.profiles import BUILTIN_PROFILES

#: A typical mid-weight page: ~30 objects, ~60 kB median each.
DEFAULT_PAGE = {"n_objects": 30, "object_bytes": 60_000, "parallelism": 6}


@dataclass
class WebQoeResult:
    """Page-load-time distributions (seconds)."""

    country_plt: Dict[str, BoxplotStats]
    technology_plt: Dict[str, BoxplotStats]

    def median_plt(self, name: str) -> float:
        if name in self.country_plt:
            return self.country_plt[name].median
        return self.technology_plt[name].median


def compute(
    frame: FlowFrame,
    countries: Sequence[str] = ("Spain", "UK", "Congo", "Nigeria"),
    technologies: Sequence[str] = ("starlink", "ftth", "adsl"),
    samples: int = 60,
    seed: int = 0,
) -> WebQoeResult:
    """Page-load boxplots per fitted country profile and per builtin
    comparison technology."""
    country_plt: Dict[str, BoxplotStats] = {}
    for country in countries:
        profile = fit_profile(frame, country)
        emulator = Emulator(profile, seed=seed, pep=True)
        plts = emulator.emulate_page_load(n=samples, **DEFAULT_PAGE)
        country_plt[country] = boxplot_stats(plts)

    technology_plt: Dict[str, BoxplotStats] = {}
    for name in technologies:
        emulator = Emulator(BUILTIN_PROFILES[name], seed=seed, pep=False)
        plts = emulator.emulate_page_load(n=samples, **DEFAULT_PAGE)
        technology_plt[name] = boxplot_stats(plts)
    return WebQoeResult(country_plt=country_plt, technology_plt=technology_plt)


def render(result: WebQoeResult) -> str:
    rows = []
    for name, stats in {**result.country_plt, **result.technology_plt}.items():
        rows.append(
            (name, f"{stats.median:.1f}", f"{stats.q1:.1f}", f"{stats.q3:.1f}", f"{stats.p95:.1f}")
        )
    rows.sort(key=lambda r: float(r[1]))
    return format_table(
        ["Access", "Median s", "Q1", "Q3", "p95"],
        rows,
        title="Extension: page-load time (30 objects × 60 kB, 6 connections)",
    )


from repro.analysis import registry as _registry

_registry.register(
    name="web-qoe",
    title="Emulated page-load time (extension)",
    module=__name__,
    columns=("country_idx", "sat_rtt_ms", "ground_rtt_ms", "bytes_up", "bytes_down", "duration_s"),
    compute_frame=compute,
    render=render,
)
