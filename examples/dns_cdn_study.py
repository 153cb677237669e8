#!/usr/bin/env python
"""Scenario: DNS resolvers vs CDN server selection (Sections 6.3–6.4).

All SatCom traffic enters the Internet in Italy, but customers resolve
names against resolvers scattered from Lagos to Beijing — so CDNs place
them wherever the *resolver* (or the ECS prefix) suggests. This example
reproduces Figure 10 and Table 2, then applies the paper's proposed
mitigation (force the operator resolver) and measures the improvement.

Run:  python examples/dns_cdn_study.py
"""

from __future__ import annotations

from repro.analysis.reports import fig9_ground_rtt, fig10_dns, table2_resolver_rtt
from repro.analysis.source import FrameSource
from repro.pipeline import generate_flow_dataset, generate_with_forced_resolver
from repro.scenario import get_scenario

SCENARIO = get_scenario("baseline-geo").with_overrides(
    {"population.n_customers": 450, "workload.days": 3, "workload.seed": 17}
)
CONFIG = SCENARIO.workload_config()


def main() -> None:
    frame, _ = generate_flow_dataset(scenario=SCENARIO)

    print(fig10_dns.render(fig10_dns.compute(frame)))
    print()

    rollup = FrameSource(frame).to_rollup()
    table2 = table2_resolver_rtt.from_rollup(rollup, countries=("UK", "Nigeria"))
    print(table2_resolver_rtt.render(table2))

    op = table2.rtt("Nigeria", "Operator-EU", "captive.apple.com")
    chinese = table2.rtt("Nigeria", "114DNS", "play.googleapis.com")
    if op and chinese:
        print(
            f"\nSame customer country, same service: {op:.0f} ms via the operator "
            f"resolver vs {chinese:.0f} ms via 114DNS — the resolver's location "
            "decided which CDN node serves a satellite customer."
        )

    print("\n--- Mitigation: force the Operator-EU resolver (Section 6.4) ---\n")
    forced_frame, _ = generate_with_forced_resolver("Operator-EU", CONFIG)
    baseline = fig9_ground_rtt.compute(frame)
    forced = fig9_ground_rtt.compute(forced_frame)
    for country in ("Congo", "Nigeria", "South Africa"):
        before = baseline.fraction_above(country, 80.0) * 100
        after = forced.fraction_above(country, 80.0) * 100
        print(
            f"{country:14s} TCP flows with ground RTT > 80 ms: "
            f"{before:5.1f} % -> {after:5.1f} %"
        )
    print(
        "\nForcing the operator resolver anchors CDN selection at the ground "
        "station: mis-selected (distant) nodes mostly disappear; only services "
        "hosted exclusively in Africa or China still pay the detour."
    )


if __name__ == "__main__":
    main()
