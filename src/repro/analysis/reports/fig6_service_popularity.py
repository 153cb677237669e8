"""Figure 6 — heatmap of service popularity per country.

"Percentage of customers accessing different services on a daily
basis": for each (service, country), the average over days of the share
of the country's customers with at least one flow classified to that
service. Services are identified from domains with the Table 3 regexes
— the generator's ground-truth labels are deliberately *not* used, so
this report exercises the classification path end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.aggregate import format_table
from repro.traffic.profiles import FIG6_ADOPTION_PCT, TOP_COUNTRIES

#: Services shown in the heatmap (the paper restricts to those whose
#: domains reflect intentional visits).
HEATMAP_SERVICES = (
    "Google",
    "Whatsapp",
    "Snapchat",
    "Wechat",
    "Telegram",
    "Instagram",
    "Tiktok",
    "Netflix",
    "Primevideo",
    "Sky",
    "Spotify",
    "Dropbox",
)

PAPER_MATRIX = FIG6_ADOPTION_PCT
"""The published heatmap, re-exported for comparisons."""


@dataclass
class Fig6Result:
    """service → country → % of customers using it per day."""

    matrix: Dict[str, Dict[str, float]]

    def popularity(self, service: str, country: str) -> float:
        return self.matrix[service][country]

    def average(self, service: str) -> float:
        values = list(self.matrix[service].values())
        return float(np.mean(values)) if values else float("nan")


def from_rollup(
    rollup, countries: Sequence[str] = TOP_COUNTRIES
) -> Fig6Result:
    """Figure 6 from a :class:`~repro.stream.StreamRollup` — exact.

    The rollup folds the same Table 3 classifier over each window's
    domain pool and counts distinct customers per (country, service,
    day); summed over days and divided by the day count this is the
    mean over days of the daily user counts.
    """
    n_days = rollup.n_days()
    customers = rollup.customers_c()
    matrix: Dict[str, Dict[str, float]] = {s: {} for s in HEATMAP_SERVICES}
    for country in countries:
        row = rollup.country_row(country)
        denom = int(customers[row])
        if denom == 0 or n_days == 0:
            continue
        for service in HEATMAP_SERVICES:
            total = int(rollup.svc_cust_days[row, rollup.service_row(service)])
            matrix[service][country] = float(total / n_days / denom * 100.0)
    return Fig6Result(matrix=matrix)


def render(result: Fig6Result) -> str:
    countries = list(next(iter(result.matrix.values())).keys())
    rows: List[List[str]] = []
    for service in HEATMAP_SERVICES:
        row = [service]
        for country in countries:
            measured = result.matrix[service].get(country, float("nan"))
            paper = PAPER_MATRIX[service].get(country)
            row.append(f"{measured:.1f} ({paper:.1f})" if paper is not None else f"{measured:.1f}")
        rows.append(row)
    return format_table(
        ["Service"] + countries,
        rows,
        title="Figure 6: % customers using service daily — measured (paper)",
    )


from repro.analysis import registry as _registry

_registry.register(
    name="fig6",
    title="Daily service popularity heatmap",
    module=__name__,
    compute_rollup=from_rollup,
    render=render,
)
