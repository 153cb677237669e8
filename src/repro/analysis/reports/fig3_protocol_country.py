"""Figure 3 — protocol share per country (top-10 by volume).

Paper's observations: Germany's TCP is ~35 % non-web (VPNs); Ireland
and the U.K. carry more plain HTTP than the rest (Sky video, Microsoft
updates); the three African countries look alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.aggregate import format_table
from repro.flowmeter.records import L7_ORDER


@dataclass
class Fig3Result:
    """country → {protocol label → volume %}."""

    shares: Dict[str, Dict[str, float]]

    def share(self, country: str, label: str) -> float:
        return self.shares[country][label]


def from_rollup(rollup, top: int = 10) -> Fig3Result:
    """Figure 3 from a :class:`~repro.stream.StreamRollup` — exact,
    read off the (country, l7, hour) volume matrix."""
    volume = rollup.volume_c()
    order = sorted(
        (i for i in range(len(rollup.countries)) if rollup.flows_c[i] > 0),
        key=lambda i: -volume[i],
    )[:top]
    shares: Dict[str, Dict[str, float]] = {}
    for i in order:
        by_l7 = rollup.vol_clh[i].sum(axis=1)
        total = by_l7.sum()
        shares[rollup.countries[i]] = {
            label.value: float(by_l7[j] / total * 100.0) if total > 0 else 0.0
            for j, label in enumerate(L7_ORDER)
        }
    return Fig3Result(shares=shares)


def render(result: Fig3Result) -> str:
    labels = ["tcp/https", "tcp/http", "tcp/other", "udp/quic", "udp/rtp", "udp/other"]
    rows: List[List[str]] = []
    for country, shares in result.shares.items():
        rows.append([country] + [f"{shares[label]:.1f}" for label in labels])
    return format_table(
        ["Country"] + labels,
        rows,
        title="Figure 3: protocol volume share per country (%)",
    )


from repro.analysis import registry as _registry

_registry.register(
    name="fig3",
    title="Protocol share per country",
    module=__name__,
    compute_rollup=from_rollup,
    render=render,
)
