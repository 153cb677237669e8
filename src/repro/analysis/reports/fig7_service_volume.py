"""Figure 7 — daily volume per customer by service category (boxplots).

Paper: Chat volume is three-orders-of-magnitude-flavoured larger in
Africa (Congo median ≈250 MB/day vs <10 MB in Europe, top-5 % above
2 GB — community APs); Social is ≈300 MB in Congo vs ≈30 MB in Europe;
Video differences are smaller; Audio is small everywhere and slightly
larger in Europe.

Categories come from the Table 3 classifier over domains, as in the
paper's pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.analysis.aggregate import format_table
from repro.analysis.classify import FIG7_CATEGORIES, ServiceClassifier
from repro.analysis.dataset import FlowFrame
from repro.analysis.stats import BoxplotStats, boxplot_stats
from repro.traffic.profiles import TOP_COUNTRIES
from repro.traffic.services import ServiceCategory

#: Published medians (MB/day) where the paper states them.
PAPER_MEDIANS_MB: Dict[ServiceCategory, Dict[str, float]] = {
    ServiceCategory.CHAT: {"Congo": 250.0, "Spain": 10.0, "UK": 10.0, "Ireland": 10.0},
    ServiceCategory.SOCIAL: {"Congo": 300.0, "Spain": 30.0, "UK": 30.0, "Ireland": 30.0},
}


@dataclass
class Fig7Result:
    """category → country → boxplot of daily MB per customer using it."""

    boxes: Dict[ServiceCategory, Dict[str, BoxplotStats]]

    def median_mb(self, category: ServiceCategory, country: str) -> float:
        return self.boxes[category][country].median

    def p95_mb(self, category: ServiceCategory, country: str) -> float:
        return self.boxes[category][country].p95


def compute(
    frame: FlowFrame,
    countries: Sequence[str] = TOP_COUNTRIES,
    classifier: ServiceClassifier = None,
) -> Fig7Result:
    """Daily per-customer volume distributions per category/country."""
    classifier = classifier or ServiceClassifier()
    labels, names = classifier.label_frame(frame)
    category_by_label = {
        i: rule.category for i, rule in enumerate(classifier.rules)
    }
    volume = frame.bytes_total()
    boxes: Dict[ServiceCategory, Dict[str, BoxplotStats]] = {
        c: {} for c in FIG7_CATEGORIES
    }
    for category in FIG7_CATEGORIES:
        label_mask = np.array(
            [category_by_label.get(int(l)) == category if l >= 0 else False for l in labels]
        )
        for country in countries:
            mask = label_mask & frame.country_mask(country)
            totals = frame.customer_day_totals(volume, mask)
            samples = np.array(list(totals.values()), dtype=np.float64) / 1e6
            boxes[category][country] = boxplot_stats(samples)
    return Fig7Result(boxes=boxes)


def from_rollup(
    rollup, countries: Sequence[str] = TOP_COUNTRIES
) -> Fig7Result:
    """Figure 7 from a :class:`~repro.stream.StreamRollup`.

    Customer-day category volumes are sketched as sub-decade log
    histograms, so the box/whisker quantiles interpolate inside a bin
    (counts and the boxplot shape are preserved; exact sample
    quantiles are not).
    """
    hist = rollup.h7_volume
    boxes: Dict[ServiceCategory, Dict[str, BoxplotStats]] = {
        c: {} for c in FIG7_CATEGORIES
    }
    for category in FIG7_CATEGORIES:
        for country in countries:
            row = rollup.fig7_row(category, country)
            n = int(round(hist.total(row)))
            if n == 0:
                boxes[category][country] = BoxplotStats(*([float("nan")] * 5), n=0)
                continue
            p5, q1, median, q3, p95 = (
                hist.quantile(row, q) / 1e6 for q in (0.05, 0.25, 0.5, 0.75, 0.95)
            )
            boxes[category][country] = BoxplotStats(p5, q1, median, q3, p95, n)
    return Fig7Result(boxes=boxes)


def render(result: Fig7Result) -> str:
    countries = list(next(iter(result.boxes.values())).keys())
    rows = []
    for category in FIG7_CATEGORIES:
        row = [category.value]
        for country in countries:
            stats = result.boxes[category][country]
            row.append(f"{stats.median:.0f}" if stats.n else "-")
        rows.append(row)
    return format_table(
        ["Category"] + [f"{c} med MB" for c in countries],
        rows,
        title="Figure 7: median daily volume per customer using the category",
    )


from repro.analysis import registry as _registry

_registry.register(
    name="fig7",
    title="Daily volume per customer by category",
    module=__name__,
    columns=("country_idx", "customer_id", "day", "domain_idx", "bytes_up", "bytes_down"),
    compute_frame=compute,
    compute_rollup=from_rollup,
    render=render,
)
