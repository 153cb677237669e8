"""Table 2 (and appendix Tables 4–5) — ground RTT per domain × resolver.

The paper joins TCP flows to the resolver the customer used and shows
that for African customers the resolver choice changes which CDN node
serves a domain — e.g. ``captive.apple.com`` costs 19.1 ms for U.K.
customers on Operator-EU but 110.4 ms for Nigerians on 114DNS — while
for European customers the resolver barely matters, and anycast-served
domains (``nflxvideo.net``) are immune.

We reproduce the join: each customer's dominant resolver is derived
from its DNS flows, then TCP flows are grouped by
(country, resolver, domain pattern) and the mean ground RTT reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.aggregate import format_table
from repro.analysis.domains import TABLE2_DOMAIN_GROUPS

#: Domain groups of Table 2 (the appendix tables add more second-level
#: domains). Shared with the streamed rollup sketch via
#: :mod:`repro.analysis.domains`.
DOMAIN_GROUPS: Dict[str, str] = TABLE2_DOMAIN_GROUPS

#: Published examples (ms): (country, resolver, domain) → mean ground RTT.
PAPER_EXAMPLES: Dict[Tuple[str, str, str], float] = {
    ("UK", "Operator-EU", "captive.apple.com"): 19.1,
    ("UK", "Google", "captive.apple.com"): 26.0,
    ("Nigeria", "Operator-EU", "captive.apple.com"): 23.1,
    ("Nigeria", "Google", "captive.apple.com"): 38.4,
    ("Nigeria", "114DNS", "captive.apple.com"): 110.4,
    ("UK", "Operator-EU", "play.googleapis.com"): 16.3,
    ("Nigeria", "Google", "play.googleapis.com"): 36.0,
    ("Nigeria", "114DNS", "play.googleapis.com"): 114.2,
    ("Nigeria", "114DNS", "*.nflxvideo.net"): 20.1,
}


@dataclass
class Table2Result:
    """(country, resolver, domain group) → mean ground RTT (ms)."""

    mean_rtt_ms: Dict[Tuple[str, str, str], float]
    sample_counts: Dict[Tuple[str, str, str], int]

    def rtt(self, country: str, resolver: str, domain: str) -> Optional[float]:
        return self.mean_rtt_ms.get((country, resolver, domain))


def from_rollup(
    rollup,
    countries: Sequence[str] = ("UK", "Nigeria"),
    min_samples: int = 5,
) -> Table2Result:
    """Table 2 from a :class:`~repro.stream.StreamRollup`.

    The rollup keeps, per customer, DNS-flow counts per resolver and
    ground-RTT (sum, count) per Table 2 domain group; the dominant-
    resolver join then happens here, after merging (most DNS flows,
    ties to the lowest resolver index).
    Only the built-in :data:`DOMAIN_GROUPS` are sketched.
    """
    group_names = rollup.t2_groups
    nr, ng = len(rollup.resolvers), len(group_names)
    means: Dict[Tuple[str, str, str], float] = {}
    counts: Dict[Tuple[str, str, str], int] = {}
    for country in countries:
        sums = np.zeros((nr, ng), dtype=np.float64)
        cnts = np.zeros((nr, ng), dtype=np.float64)
        for cid in rollup.customers_of(country):
            bank = rollup.t2_bank(cid)
            if bank is None:
                continue
            dns_counts, rtt_sum, rtt_cnt = bank
            if dns_counts.sum() == 0:
                continue
            dominant = int(np.argmax(dns_counts))
            sums[dominant] += rtt_sum
            cnts[dominant] += rtt_cnt
        for r_idx, resolver in enumerate(rollup.resolvers):
            for g_idx, group in enumerate(group_names):
                n = int(cnts[r_idx, g_idx])
                if n >= min_samples:
                    key = (country, resolver, group)
                    means[key] = float(sums[r_idx, g_idx] / n)
                    counts[key] = n
    return Table2Result(mean_rtt_ms=means, sample_counts=counts)


def render(result: Table2Result) -> str:
    rows: List[Tuple[str, str, str, str, str]] = []
    seen_keys = sorted(result.mean_rtt_ms)
    for key in seen_keys:
        country, resolver, domain = key
        paper = PAPER_EXAMPLES.get(key)
        rows.append(
            (
                country,
                resolver,
                domain,
                f"{result.mean_rtt_ms[key]:.1f}",
                f"{paper:.1f}" if paper is not None else "-",
            )
        )
    return format_table(
        ["Country", "Resolver", "Domain", "Measured ms", "Paper ms"],
        rows,
        title="Table 2: mean ground RTT per domain and resolver",
    )


from repro.analysis import registry as _registry

_registry.register(
    name="table2",
    title="Ground RTT per domain and resolver",
    module=__name__,
    compute_rollup=from_rollup,
    render=render,
)
