"""Figure 12 — video-session QoE per country and plan (extension).

The paper stops at bulk throughput (Figure 11a), whose CCDF knees sit
at the commercial plan rates. This extension projects those same plan
rates onto adaptive-bitrate video sessions
(:class:`~repro.traffic.sessions.VideoSessionModel`): per-session
rebuffer ratio, mean resolution level on the bitrate ladder, and level
switches, aggregated per (country, plan). The shaping presets
(``shaped-vs-unshaped``) make the operator-policy trade-off visible as
a QoE delta rather than a raw rate cap.

No published values exist for this figure; the Figure 11a plan-rate
knees (30/50/100 Mb/s Europe, 10/30 Mb/s Africa) are the reference
points a sensible QoE gradient must follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.analysis.aggregate import format_table
from repro.satcom.plans import PLAN_ORDER

#: Figure 11a plan-rate knees — the throughput context for the QoE rows.
PAPER_PLAN_KNEES_MBPS = {
    "Europe": (30.0, 50.0, 100.0),
    "Africa": (10.0, 30.0),
}


@dataclass
class Fig12Result:
    """Per-(plan, country) session counters and QoE sums.

    Arrays are ``(n_plans, n_countries)`` over the capture's full
    country pool and :data:`PLAN_ORDER`.
    """

    countries: List[str]
    plans: Tuple[str, ...]
    sessions: np.ndarray  # int64
    rebuffer_sum: np.ndarray  # float64
    level_sum: np.ndarray  # float64
    switch_sum: np.ndarray  # float64

    def total_sessions(self) -> int:
        return int(self.sessions.sum())

    def cell(self, country: str, plan: str) -> Tuple[int, float, float, float]:
        """(sessions, mean rebuffer, mean level, mean switches)."""
        p = self.plans.index(plan)
        c = self.countries.index(country)
        n = int(self.sessions[p, c])
        if n == 0:
            return 0, float("nan"), float("nan"), float("nan")
        return (
            n,
            float(self.rebuffer_sum[p, c] / n),
            float(self.level_sum[p, c] / n),
            float(self.switch_sum[p, c] / n),
        )


def from_rollup(rollup) -> Fig12Result:
    """Figure 12 from the v4 QoE bank: sessions deduped on their id and
    summed per (plan, country), folded window by window."""
    nc = len(rollup.countries)
    shape = (len(PLAN_ORDER), nc)
    return Fig12Result(
        countries=list(rollup.countries),
        plans=PLAN_ORDER,
        sessions=rollup.qoe_sessions.reshape(shape).copy(),
        rebuffer_sum=rollup.qoe_rebuffer_sum.reshape(shape).copy(),
        level_sum=rollup.qoe_level_sum.reshape(shape).copy(),
        switch_sum=rollup.qoe_switch_sum.reshape(shape).copy(),
    )


def render(result: Fig12Result) -> str:
    rows = []
    for country in result.countries:
        for plan in result.plans:
            n, rebuf, level, switches = result.cell(country, plan)
            if n == 0:
                continue
            rows.append(
                (
                    country,
                    plan,
                    n,
                    f"{rebuf * 100:.2f} %",
                    f"{level:.2f}",
                    f"{switches:.2f}",
                )
            )
    title = "Figure 12: video-session QoE per country and plan (extension)"
    if not rows:
        return (
            f"{title}\n  no video sessions in this capture "
            "(generate with --scenario video-streaming or "
            "--set traffic.qoe.enabled=true)"
        )
    return format_table(
        ["Country", "Plan", "Sessions", "Rebuffer", "Mean level", "Switches"],
        rows,
        title=title,
    )


from repro.analysis import registry as _registry

_registry.register(
    name="fig12",
    title="Video-session QoE (extension)",
    module=__name__,
    compute_rollup=from_rollup,
    render=render,
)
