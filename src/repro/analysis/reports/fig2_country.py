"""Figure 2 — per-country breakdown of traffic volume and customer base.

Paper's headline: Congolese customers are ~20 % of the base but ~27 %
of volume (≈600 MB/day each); Spaniards are ~16 % of customers but only
~10 % of volume (≈170 MB/day each) — African customers consume more
per subscription because connections are shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.aggregate import format_table

#: (volume %, customer %) the paper reports for the two named countries.
PAPER_SHARES: Dict[str, Tuple[float, float]] = {
    "Congo": (27.0, 20.0),
    "Spain": (10.0, 16.0),
}


@dataclass
class Fig2Result:
    """Per-country (volume %, customer %), sorted by volume, and each
    country's mean download (MB) per customer and capture day."""

    rows: List[Tuple[str, float, float]]
    daily_download_mb: Dict[str, float] = field(default_factory=dict)

    def shares(self, country: str) -> Tuple[float, float]:
        for name, vol, cust in self.rows:
            if name == country:
                return vol, cust
        raise KeyError(country)

    def over_indexes(self, country: str) -> bool:
        """True when the country's volume share exceeds its customer share."""
        vol, cust = self.shares(country)
        return vol > cust


def from_rollup(rollup) -> Fig2Result:
    """Figure 2 from a :class:`~repro.stream.StreamRollup` — exact
    (volume and distinct-customer counters are lossless sketches)."""
    volume = rollup.volume_c()
    customers = rollup.customers_c()
    total_volume = volume.sum()
    total_customers = customers.sum()
    rows = [
        (
            country,
            float(volume[i] / total_volume * 100.0),
            float(customers[i] / total_customers * 100.0),
        )
        for i, country in enumerate(rollup.countries)
        if rollup.flows_c[i] > 0
    ]
    rows.sort(key=lambda row: -row[1])
    days = rollup.n_days()
    daily = {
        country: float(rollup.bytes_down_c[i] / customers[i] / days / 1e6)
        for i, country in enumerate(rollup.countries)
        if rollup.flows_c[i] > 0
    }
    return Fig2Result(rows=rows, daily_download_mb=daily)


def render(result: Fig2Result, top: int = 12) -> str:
    """Paper-vs-measured table for the top countries."""
    rows = []
    for name, vol, cust in result.rows[:top]:
        paper = PAPER_SHARES.get(name)
        paper_str = f"{paper[0]:.0f}/{paper[1]:.0f}" if paper else "-"
        rows.append((name, f"{vol:.1f} %", f"{cust:.1f} %", paper_str))
    return format_table(
        ["Country", "Volume", "Customers", "Paper v/c"],
        rows,
        title="Figure 2: per-country volume and customer share",
    )


from repro.analysis import registry as _registry

_registry.register(
    name="fig2",
    title="Per-country volume and customer share",
    module=__name__,
    compute_rollup=from_rollup,
    render=render,
)
