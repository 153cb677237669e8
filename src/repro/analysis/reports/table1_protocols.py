"""Table 1 — TCP/UDP traffic breakdown by protocol.

Paper: HTTPS 56.0 %, HTTP 12.1 %, other TCP 7.0 %, QUIC 19.6 %,
RTP 1.1 %, DNS < 0.1 %, other UDP 4.2 % of total volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.aggregate import format_table
from repro.flowmeter.records import L7_ORDER

PAPER_SHARES: Dict[str, float] = {
    "tcp/https": 56.0,
    "tcp/http": 12.1,
    "tcp/other": 7.0,
    "udp/quic": 19.6,
    "udp/rtp": 1.1,
    "udp/dns": 0.05,  # "< 0.1 %"
    "udp/other": 4.2,
}


@dataclass
class Table1Result:
    """Measured protocol volume shares (percent)."""

    shares: Dict[str, float]

    def share(self, label: str) -> float:
        return self.shares[label]


def from_rollup(rollup) -> Table1Result:
    """Table 1 from a :class:`~repro.stream.StreamRollup` — exact
    (the (country, l7, hour) volume matrix sums losslessly)."""
    by_l7 = rollup.volume_by_l7()
    total = by_l7.sum()
    if total <= 0:
        return Table1Result(shares={label.value: 0.0 for label in L7_ORDER})
    return Table1Result(
        shares={
            label.value: float(by_l7[i] / total * 100.0)
            for i, label in enumerate(L7_ORDER)
        }
    )


def render(result: Table1Result) -> str:
    """Paper-vs-measured comparison table."""
    rows = [
        (label, f"{PAPER_SHARES[label]:.1f} %", f"{measured:.1f} %")
        for label, measured in result.shares.items()
    ]
    return format_table(
        ["Protocol", "Paper", "Measured"], rows, title="Table 1: protocol volume share"
    )


from repro.analysis import registry as _registry

_registry.register(
    name="table1",
    title="Protocol volume breakdown",
    module=__name__,
    compute_rollup=from_rollup,
    render=render,
)
