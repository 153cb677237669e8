"""The claim ledger: every paper claim the reproduction grades, once.

The calibration scorecard (:mod:`repro.analysis.validation`) grades
the ``headline`` claims, each figure/table benchmark asserts every
claim on its report, and :func:`sweep` grades them all over fixed
seeds. Paper values come from the report modules' ``PAPER_*``
constants where one exists.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import registry
from repro.analysis.aggregate import format_table
from repro.analysis.reports import (
    fig2_country,
    fig6_service_popularity,
    fig7_service_volume,
    fig8_satellite_rtt,
    fig10_dns,
    table1_protocols,
)
from repro.internet.geo import COUNTRIES
from repro.traffic.services import ServiceCategory

#: The comparison tests: ``value <op> bound``.
_COMPARE = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
}


@dataclass(frozen=True)
class Claim:
    """One paper claim: the registry report it reads, a query from that
    report's result to one number or boolean, and its test: ``"±"``
    (``|value - paper| <= bound``), ``"in"`` (``bound[0] <= value <=
    bound[1]``) or a comparison of ``_COMPARE``. A direction ``a > k·b``
    queries the margin ``a - k·b`` against 0, exact in floating point.
    """

    report: str
    name: str
    query: Callable[[Any], Any]
    test: str
    bound: Any
    paper: Optional[float] = None
    unit: str = ""
    headline: bool = False

    def passes(self, value) -> bool:
        if self.test == "±":
            return bool(abs(value - self.paper) <= self.bound)
        if self.test == "in":
            return bool(self.bound[0] <= value <= self.bound[1])
        return bool(_COMPARE[self.test](value, self.bound))

    def describe(self) -> str:
        if self.test == "±":
            return f"{self.paper:g} ± {self.bound:g}{self.unit}"
        if self.test == "in":
            return f"in [{self.bound[0]:g}, {self.bound[1]:g}]{self.unit}"
        return f"{self.test} {self.bound}"


def _fig8a(result):
    """Panel (a) of Figure 8; the frame path computes both panels."""
    return result[0] if isinstance(result, tuple) else result


def _beam_gap(result) -> float:
    """Figure 8b: the lowest Congo beam median minus the highest Spain one."""
    rows = result[1].rows
    congo = min(m for _, c, m, _ in rows if c == "Congo")
    return congo - max(m for _, c, m, _ in rows if c == "Spain")


def _fig6_error(result) -> float:
    """Mean absolute error against the published heatmap."""
    errors = [
        abs(result.popularity(service, country) - paper)
        for service, row in fig6_service_popularity.PAPER_MATRIX.items()
        for country, paper in row.items()
    ]
    return float(np.mean(errors))


def _congo_over_spain(result, category: ServiceCategory) -> float:
    return result.median_mb(category, "Congo") / result.median_mb(category, "Spain")


def _rtts(result, domain: str, countries=None, resolvers=None) -> List[float]:
    """The mean ground RTTs of ``domain``, for the given countries and
    resolvers (all, where None)."""
    return [
        rtt
        for (country, resolver, d), rtt in result.mean_rtt_ms.items()
        if d == domain
        and (countries is None or country in countries)
        and (resolvers is None or resolver in resolvers)
    ]


def _max_spread(result, country: str) -> float:
    spreads = [result.resolver_spread(country, d) or 0.0 for d in result.top_domains[country]]
    return max(spreads) if spreads else 0.0


def _nan_if_none(value) -> float:
    return float("nan") if value is None else value


_NAN = float("nan")
_EU = ("Spain", "UK", "Ireland")
_AF = ("Congo", "Nigeria", "South Africa")
_T1 = table1_protocols.PAPER_SHARES
_F2 = fig2_country.PAPER_SHARES
_F7 = fig7_service_volume.PAPER_MEDIANS_MB
_F8 = fig8_satellite_rtt
_F10 = fig10_dns.PAPER_MEDIAN_MS
_CHAT, _SOCIAL = ServiceCategory.CHAT, ServiceCategory.SOCIAL
#: The Figure 10 medians the scorecard grades; the benchmark grades all nine.
_SCORED_RESOLVERS = ("Operator-EU", "Google", "Nigerian", "Baidu", "114DNS")


def _t1_share(label: str, tolerance: float) -> Claim:
    return Claim(
        "table1", f"Table1 {label} volume share", lambda r: r.share(label), "±",
        tolerance, _T1[label], " %", True,
    )


def _f10_median(resolver: str) -> Claim:
    return Claim(
        "fig10", f"Fig10 {resolver} median response",
        lambda r: r.median_response_ms.get(resolver, _NAN), "±", _F10[resolver] * 0.25,
        _F10[resolver], " ms", resolver in _SCORED_RESOLVERS,
    )


CLAIMS: Tuple[Claim, ...] = (
    # Table 1: the protocol mix.
    _t1_share("tcp/https", 8.0),
    _t1_share("udp/quic", 6.0),
    _t1_share("tcp/http", 6.0),
    _t1_share("tcp/other", 5.0),
    _t1_share("udp/other", 3.0),
    _t1_share("udp/rtp", 1.5),
    Claim("table1", "Table1 udp/dns volume share", lambda r: r.share("udp/dns"), "<", 0.1),
    Claim("table1", "Table1 https > quic > http > rtp", lambda r: r.share("tcp/https")
          > r.share("udp/quic") > r.share("tcp/http") > r.share("udp/rtp"), "==", True),
    # Figure 2: Congo over-indexes on volume, Spain under-indexes.
    Claim("fig2", "Fig2 Congo customer share", lambda r: r.shares("Congo")[1], "±", 4.0,
          _F2["Congo"][1], " %", True),
    Claim("fig2", "Fig2 Congo volume share", lambda r: r.shares("Congo")[0], "±", 10.0,
          _F2["Congo"][0], " %", True),
    Claim("fig2", "Fig2 Spain customer share", lambda r: r.shares("Spain")[1], "±", 4.0,
          _F2["Spain"][1], " %", True),
    Claim("fig2", "Fig2 Spain volume share", lambda r: r.shares("Spain")[0], "±", 6.0,
          _F2["Spain"][0], " %", True),
    Claim("fig2", "Fig2 Congo over-indexes", lambda r: r.over_indexes("Congo"), "==", True),
    Claim("fig2", "Fig2 Spain over-indexes", lambda r: r.over_indexes("Spain"), "==", False),
    Claim("fig2", "Fig2 Congo volume - (customers + 4)",
          lambda r: r.shares("Congo")[0] - (r.shares("Congo")[1] + 4.0), ">", 0),
    Claim("fig2", "Fig2 Congo - 2.5x Spain daily MB", lambda r: r.daily_download_mb["Congo"]
          - 2.5 * r.daily_download_mb["Spain"], ">", 0),
    # Figure 3: Germany's VPNs, Ireland/UK plain HTTP, alike African mixes.
    Claim("fig3", "Fig3 Germany tcp/other", lambda r: r.share("Germany", "tcp/other"), ">", 12.0),
    Claim("fig3", "Fig3 Ireland/UK - Congo tcp/http", lambda r: min(r.share(c, "tcp/http")
          for c in ("Ireland", "UK")) - r.share("Congo", "tcp/http"), ">", 0),
    Claim("fig3", "Fig3 African tcp/https spread",
          lambda r: np.ptp([r.share(c, "tcp/https") for c in _AF]), "<", 25.0),
    # Figure 4: Europe's evening peak, Congo's morning peak.
    Claim("fig4", "Fig4 Congo peak hour (UTC)", lambda r: r.peak_hour_utc("Congo"), "±", 2.0,
          9.0, "h", True),
    Claim("fig4", "Fig4 Spain peak hour (UTC)", lambda r: r.peak_hour_utc("Spain"), "±", 2.0,
          19.0, "h", True),
    Claim("fig4", "Fig4 Spain peak hour range", lambda r: r.peak_hour_utc("Spain"), "in", (16, 21)),
    Claim("fig4", "Fig4 UK peak hour range", lambda r: r.peak_hour_utc("UK"), "in", (16, 21)),
    Claim("fig4", "Fig4 Congo peak hour range", lambda r: r.peak_hour_utc("Congo"), "in", (7, 12)),
    Claim("fig4", "Fig4 Congo 9:00 level", lambda r: r.morning_level("Congo"), ">", 0.75),
    Claim("fig4", "Fig4 Nigeria 9:00 level", lambda r: r.morning_level("Nigeria"), ">", 0.75),
    Claim("fig4", "Fig4 UK 9:00 level", lambda r: r.morning_level("UK"), "<", 0.6),
    Claim("fig4", "Fig4 Congo - Spain night floor",
          lambda r: r.night_floor("Congo") - r.night_floor("Spain"), ">", 0),
    # Figure 5: the European idle knee; African heavy hitters.
    Claim("fig5", "Fig5a Europe <250 flows/day", lambda r: r.idle_fraction("Spain") * 100, "±",
          12.0, 55.0, " %", True),
    Claim("fig5", "Fig5a Spain idle fraction", lambda r: r.idle_fraction("Spain"), ">", 0.45),
    Claim("fig5", "Fig5a UK idle fraction", lambda r: r.idle_fraction("UK"), ">", 0.45),
    Claim("fig5", "Fig5a Congo - 3x Spain median flows",
          lambda r: r.median_flows("Congo") - 3 * r.median_flows("Spain"), ">", 0),
    Claim("fig5", "Fig5b Congo - 1.3x Spain heavy downloaders",
          lambda r: r.heavy_downloader_pct("Congo") - 1.3 * r.heavy_downloader_pct("Spain"),
          ">", 0),
    Claim("fig5", "Fig5c Congo - Ireland heavy uploaders",
          lambda r: r.heavy_uploader_pct("Congo") - r.heavy_uploader_pct("Ireland"), ">", 0),
    Claim("fig5", "Fig5c Nigeria heavy uploaders", lambda r: r.heavy_uploader_pct("Nigeria"),
          ">", 3.0),
    # Figure 6: the service heatmap and its orderings.
    Claim("fig6", "Fig6 mean abs error vs paper", _fig6_error, "<", 8.0),
    Claim("fig6", "Fig6 Whatsapp in Congo", lambda r: r.popularity("Whatsapp", "Congo"), ">", 45),
    Claim("fig6", "Fig6 Wechat Congo - Spain",
          lambda r: r.popularity("Wechat", "Congo") - r.popularity("Wechat", "Spain"), ">", 0),
    Claim("fig6", "Fig6 Netflix Ireland - Congo",
          lambda r: r.popularity("Netflix", "Ireland") - r.popularity("Netflix", "Congo"),
          ">", 0),
    Claim("fig6", "Fig6 Primevideo UK - Nigeria",
          lambda r: r.popularity("Primevideo", "UK") - r.popularity("Primevideo", "Nigeria"),
          ">", 0),
    Claim("fig6", "Fig6 Tiktok - (Instagram + 8)", lambda r: np.max([r.popularity("Tiktok", c)
          - (r.popularity("Instagram", c) + 8) for c in ("Congo", "Spain", "UK")]), "<", 0),
    # Figure 7: chat and social volume in Congo.
    Claim("fig7", "Fig7 Congo chat median", lambda r: r.median_mb(_CHAT, "Congo"), "±",
          0.5 * _F7[_CHAT]["Congo"], _F7[_CHAT]["Congo"], " MB"),
    Claim("fig7", "Fig7 Spain chat median", lambda r: r.median_mb(_CHAT, "Spain"), "<", 30.0),
    Claim("fig7", "Fig7 Congo - 8x Spain chat median",
          lambda r: r.median_mb(_CHAT, "Congo") - 8 * r.median_mb(_CHAT, "Spain"), ">", 0),
    Claim("fig7", "Fig7 Congo social median", lambda r: r.median_mb(_SOCIAL, "Congo"), "±",
          0.6 * _F7[_SOCIAL]["Congo"], _F7[_SOCIAL]["Congo"], " MB"),
    Claim("fig7", "Fig7 Congo chat p95", lambda r: r.p95_mb(_CHAT, "Congo"), ">", 1000.0),
    Claim("fig7", "Fig7 Congo:Spain video - chat/3", lambda r: _congo_over_spain(
          r, ServiceCategory.VIDEO) - _congo_over_spain(r, _CHAT) / 3, "<", 0),
    Claim("fig7", "Fig7 audio median", lambda r: np.max([r.median_mb(ServiceCategory.AUDIO, c)
          for c in ("Congo", "Spain")]), "<", 60.0),
    # Figure 8: the 550 ms floor, Spain's good nights, Congo's PEP tail.
    Claim("fig8", "Fig8a Spain night <1s", lambda r: _fig8a(r).fraction_under(
          "Spain", "night", 1000.0) * 100, "±", 9.0, _F8.PAPER_SPAIN_NIGHT_UNDER_1S * 100,
          " %", True),
    Claim("fig8", "Fig8a Congo night >2s", lambda r: _fig8a(r).fraction_over(
          "Congo", "night", 2000.0) * 100, "±", 10.0, _F8.PAPER_CONGO_OVER_2S * 100, " %", True),
    Claim("fig8", "Fig8a satellite RTT floor", lambda r: min(_fig8a(r).minimum_ms(c)
          for c in _fig8a(r).samples), "±", 40.0, _F8.PAPER_FLOOR_MS, " ms", True),
    Claim("fig8", "Fig8a lowest country minimum", lambda r: np.min([_fig8a(r).minimum_ms(c)
          for c in _fig8a(r).samples]), ">", 520.0),
    Claim("fig8", "Fig8a night <1s: others - (Spain + 0.03)", lambda r: np.max([
          _fig8a(r).fraction_under(c, "night", 1000.0) for c in ("Congo", "Ireland", "UK",
          "South Africa")]) - (_fig8a(r).fraction_under("Spain", "night", 1000.0) + 0.03),
          "<=", 0),
    Claim("fig8", "Fig8a Congo night >2s fraction",
          lambda r: _fig8a(r).fraction_over("Congo", "night", 2000.0), ">", 0.08),
    Claim("fig8", "Fig8a Congo >2s peak - night", lambda r: _fig8a(r).fraction_over(
          "Congo", "peak", 2000.0) - _fig8a(r).fraction_over("Congo", "night", 2000.0), ">", 0),
    Claim("fig8", "Fig8a Ireland >1.5s night/peak gap", lambda r: abs(_fig8a(r).fraction_over(
          "Ireland", "night", 1500.0) - _fig8a(r).fraction_over("Ireland", "peak", 1500.0)),
          "<", 0.08),
    Claim("fig8", "Fig8b Congo beams - Spain beams", _beam_gap, ">", 0),
    # Figure 9: European ground RTT is short; Africa's detour is long.
    Claim("fig9", "Fig9 Europe ground RTT <40ms", lambda r: np.mean([r.fraction_below(c, 40.0)
          for c in _EU]) * 100, "±", 12.0, 80.0, " %", True),
    Claim("fig9", "Fig9 lowest European <40ms",
          lambda r: np.min([r.fraction_below(c, 40.0) for c in _EU]), ">", 0.80),
    Claim("fig9", "Fig9 UK <15ms", lambda r: r.fraction_below("UK", 15.0), ">", 0.20),
    Claim("fig9", "Fig9 Africa - Europe median", lambda r: np.mean([r.median_ms(c) for c in _AF])
          - np.mean([r.median_ms(c) for c in _EU]), ">", 0),
    Claim("fig9", "Fig9 Congo >250ms", lambda r: r.fraction_above("Congo", 250.0), ">", 0.01),
    Claim("fig9", "Fig9 Congo - 3x Spain >250ms",
          lambda r: r.fraction_above("Congo", 250.0) - 3 * r.fraction_above("Spain", 250.0),
          ">", 0),
    # Figure 10: resolver response times and adoption.
    *(_f10_median(resolver) for resolver in _F10),
    Claim("fig10", "Fig10 Google share in Congo", lambda r: r.share("Google", "Congo"), "±",
          14.0, fig10_dns.PAPER_SHARES["Congo"]["Google"], " %", True),
    Claim("fig10", "Fig10 Google share in Congo (benchmark)",
          lambda r: r.share("Google", "Congo"), "±", 12, 85.7, " %"),
    Claim("fig10", "Fig10 Operator-EU in Ireland",
          lambda r: r.share("Operator-EU", "Ireland"), ">", 25),
    Claim("fig10", "Fig10 Operator-EU in Congo", lambda r: r.share("Operator-EU", "Congo"), "<", 8),
    Claim("fig10", "Fig10 Nigerian in Nigeria", lambda r: r.share("Nigerian", "Nigeria"), ">", 6),
    Claim("fig10", "Fig10 Nigerian in UK", lambda r: r.share("Nigerian", "UK"), "<", 3),
    Claim("fig10", "Fig10 114DNS Congo - Spain",
          lambda r: r.share("114DNS", "Congo") - r.share("114DNS", "Spain"), ">", 0),
    Claim("fig10", "Fig10 fastest is Operator-EU", lambda r: min(
          r.median_response_ms, key=r.median_response_ms.get) == "Operator-EU", "==", True),
    Claim("fig10", "Fig10 slowest is Baidu", lambda r: max(
          r.median_response_ms, key=r.median_response_ms.get) == "Baidu", "==", True),
    # Figure 11: European plans are faster, Congo slows at peak.
    Claim("fig11", "Fig11 Europe - 1.8x Africa median", lambda r: np.mean([r.median_mbps(c)
          for c in _EU]) - 1.8 * np.mean([r.median_mbps(c) for c in _AF]), ">", 0),
    Claim("fig11", "Fig11 Spain >25 Mb/s", lambda r: r.fraction_above("Spain", 25.0), ">", 0.15),
    Claim("fig11", "Fig11 Congo >25 Mb/s", lambda r: r.fraction_above("Congo", 25.0), "<", 0.05),
    Claim("fig11", "Fig11 UK >80 Mb/s", lambda r: r.fraction_above("UK", 80.0), ">", 0.01),
    Claim("fig11", "Fig11 UK >105 Mb/s", lambda r: r.fraction_above("UK", 105.0), "==", 0.0),
    Claim("fig11", "Fig11 Congo peak drop", lambda r: r.peak_degradation("Congo"), ">", 0.05),
    Claim("fig11", "Fig11 Congo night - peak median",
          lambda r: r.night_boxes["Congo"].median - r.peak_boxes["Congo"].median, ">", 0),
    # Table 2: the resolver picks the CDN node for Africa, not for Europe.
    Claim("table2", "Table2 UK captive.apple.com max", lambda r: max(_rtts(r, "captive.apple.com",
          ("UK",), ("Operator-EU", "Google", "CloudFlare", "Open DNS")), default=_NAN), "<", 45.0),
    Claim("table2", "Table2 Nigeria Operator-EU captive.apple.com", lambda r: _nan_if_none(
          r.rtt("Nigeria", "Operator-EU", "captive.apple.com")), "<", 40.0),
    Claim("table2", "Table2 Nigeria 114DNS Google/Apple", lambda r: _nan_if_none(
          r.rtt("Nigeria", "114DNS", "play.googleapis.com")
          or r.rtt("Nigeria", "114DNS", "captive.apple.com")), "±", 0.35 * 110.0, 110.0, " ms"),
    Claim("table2", "Table2 nflxvideo.net max", lambda r: max(_rtts(r, "*.nflxvideo.net", ("UK",
          "Nigeria"), ("Operator-EU", "Google", "Nigerian", "114DNS")), default=_NAN), "<", 40.0),
    Claim("table2", "Table2 qq.com min", lambda r: min(_rtts(r, "qq.com", ("Congo", "Nigeria"),
          ("Operator-EU", "Google", "114DNS", "Baidu")), default=_NAN), ">", 180.0),
    # Appendix Tables 4-5: Chinese platforms are far, the spread is African.
    Claim("appendix", "Appendix qq.com min", lambda r: min(_rtts(r, "qq.com"), default=_NAN),
          ">", 180.0),
    Claim("appendix", "Appendix UK whatsapp.net max",
          lambda r: max(_rtts(r, "whatsapp.net", ("UK",)), default=_NAN), "<", 45.0),
    Claim("appendix", "Appendix Nigeria - UK resolver spread",
          lambda r: _max_spread(r, "Nigeria") - _max_spread(r, "UK"), ">", 0),
    Claim("appendix", "Appendix Congo resolver spread", lambda r: _max_spread(r, "Congo"),
          ">", 50.0),
    # Figure 12 (extension): video-session QoE.
    Claim("fig12", "Fig12 mean rebuffer ratio", lambda r: float(
          r.rebuffer_sum.sum() / r.total_sessions()) * 100.0, "±", 5.0, 1.0, " %", True),
    Claim("fig12", "Fig12 mean resolution level",
          lambda r: float(r.level_sum.sum() / r.total_sessions()), "±", 1.5, 2.5, "", True),
)

#: The claims the calibration scorecard grades, in its row order.
HEADLINE: Tuple[Claim, ...] = tuple(c for c in CLAIMS if c.headline)

#: Report arguments beyond the registry defaults: Figure 3 over every
#: country, not only the ten it renders; the countries of Table 2.
_REPORT_ARGS = {
    "fig3": (len(COUNTRIES),),
    "table2": (("UK", "Nigeria", "Congo", "South Africa"),),
}


def measure(claims: Sequence[Claim], rollup, frame=None) -> Dict[str, Any]:
    """Each report ``claims`` read, computed once.

    A report with a frame path reads ``frame`` when one is given; the
    others, and every report without a frame, read ``rollup``. Figure
    12 is measured only when the capture has video sessions
    (``traffic.qoe``), so QoE-less captures grade no QoE claim.
    """
    results: Dict[str, Any] = {}
    for name in dict.fromkeys(claim.report for claim in claims):
        if name == "fig12" and int(rollup.qoe_sessions.sum()) == 0:
            continue
        spec = registry.get(name)
        args = _REPORT_ARGS.get(name, ())
        if frame is not None and spec.compute_frame is not None:
            results[name] = spec.compute_frame(frame, *args)
        else:
            results[name] = spec.compute_rollup(rollup, *args)
    return results


def grade(claims: Sequence[Claim], results: Dict[str, Any]) -> List[Tuple[Claim, Any]]:
    """``(claim, measured value)`` for each claim whose report is in
    ``results``, in ledger order."""
    return [(c, c.query(results[c.report])) for c in claims if c.report in results]


def check(report: str, result) -> None:
    """Assert every claim on ``report`` against its computed ``result``;
    the error names each failing claim and its measured value."""
    failed = [
        f"{claim.name}: measured {value!r}, claim {claim.describe()}"
        for claim, value in grade(CLAIMS, {report: result})
        if not claim.passes(value)
    ]
    if failed:
        raise AssertionError("; ".join(failed))


#: Fixed before any sweep result existed, and disjoint from the seeds
#: the calibration was explored on (1–5, 11 and 2022).
SWEEP_SEEDS: Tuple[int, ...] = (101, 202, 303, 404, 505)


@dataclass
class SweepResult:
    """Each claim's measured value per seed, at one capture size."""

    customers: int
    days: int
    seeds: Tuple[int, ...]
    values: Dict[str, List[Any]]

    def render(self) -> str:
        # the spread skips seeds whose report cell is empty (NaN)
        rows, always = [], 0
        for claim in (c for c in CLAIMS if c.name in self.values):
            passed = sum(claim.passes(v) for v in self.values[claim.name])
            always += passed == len(self.seeds)
            values = np.asarray(self.values[claim.name], dtype=np.float64)
            values = values[np.isfinite(values)]
            spread = np.quantile(values, (0, 0.5, 1)) if len(values) else [np.nan] * 3
            rows.append((claim.name, claim.describe(), f"{passed}/{len(self.seeds)}")
                        + tuple(f"{v:.4g}" for v in spread))
        seeds = ", ".join(str(seed) for seed in self.seeds)
        title = f"Claim sweep: baseline-geo, {self.customers} customers x {self.days} days"
        table = format_table(
            ["Claim", "Test", "Pass", "Min", "Median", "Max"], rows, title=f"{title}, seeds {seeds}"
        )
        return table + f"\n{always}/{len(rows)} claims pass on every seed"


def sweep(seeds: Sequence[int], customers: int, days: int) -> SweepResult:
    """Grade every claim on one ``baseline-geo`` capture per seed, read
    on the frame path as ``repro scorecard`` and the benchmarks read it."""
    from repro.analysis.source import FrameSource
    from repro.scenario import get_scenario

    values: Dict[str, List[Any]] = {}
    for seed in seeds:
        scenario = get_scenario("baseline-geo").with_overrides(
            {"population.n_customers": customers, "workload.days": days, "workload.seed": seed}
        )
        frame = scenario.build_generator().generate()
        results = measure(CLAIMS, FrameSource(frame).to_rollup(), frame)
        for claim, value in grade(CLAIMS, results):
            values.setdefault(claim.name, []).append(value)
    return SweepResult(customers, days, tuple(seeds), values)
