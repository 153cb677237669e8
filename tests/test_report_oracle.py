"""The six exact reports against reference numpy group-bys.

Table 1, Figures 2, 3, 6 and 12 and Table 2 have one compute path: fold
the flows into a :class:`~repro.stream.StreamRollup` and read it with
``from_rollup``. This module keeps the per-flow computation they used
to carry as a second path — masks and ``np.unique`` over the frame —
as the oracle, and checks that ``from_rollup(FrameSource(f).to_rollup())``
matches it on whole captures and on slices that empty out countries,
days, DNS flows and sessions: counts exactly, shares and means to
1e-12 relative, and rendered text byte for byte.
"""

import math
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.analysis.aggregate import (
    dominant_resolver_per_customer,
    table2_group_of_domains,
)
from repro.analysis.classify import ServiceClassifier
from repro.analysis.domains import TABLE2_DOMAIN_GROUPS
from repro.analysis.reports import (
    fig2_country,
    fig3_protocol_country,
    fig6_service_popularity,
    fig12_video_qoe,
    table1_protocols,
    table2_resolver_rtt,
)
from repro.analysis.source import FrameSource
from repro.flowmeter.records import L7_ORDER
from repro.satcom.plans import PLAN_ORDER, plan_index_bulk
from repro.scenario import get_scenario
from repro.traffic.profiles import TOP_COUNTRIES

# -- the oracle ----------------------------------------------------------------


def protocol_volume_share(frame, mask: Optional[np.ndarray] = None) -> Dict[str, float]:
    """Volume share (percent) per protocol label."""
    if mask is None:
        mask = np.ones(len(frame), dtype=bool)
    volume = frame.bytes_total()[mask]
    l7 = frame.l7_idx[mask]
    total = volume.sum()
    if total <= 0:
        return {label.value: 0.0 for label in L7_ORDER}
    return {
        label.value: float(volume[l7 == i].sum() / total * 100.0)
        for i, label in enumerate(L7_ORDER)
    }


def country_breakdown(frame) -> List[Tuple[str, float, float]]:
    """(country, volume %, customer %) sorted by decreasing volume."""
    volume = frame.bytes_total()
    total_volume = volume.sum()
    total_customers = len(np.unique(frame.customer_id))
    rows = []
    for country, mask in frame.groupby_country().items():
        vol_pct = float(volume[mask].sum() / total_volume * 100.0)
        cust_pct = float(len(np.unique(frame.customer_id[mask])) / total_customers * 100.0)
        rows.append((country, vol_pct, cust_pct))
    rows.sort(key=lambda row: -row[1])
    return rows


def table1_oracle(frame):
    return table1_protocols.Table1Result(shares=protocol_volume_share(frame))


def fig2_oracle(frame):
    days = len(np.unique(frame.day))
    daily = {
        country: float(
            frame.bytes_down[mask].sum() / len(np.unique(frame.customer_id[mask])) / days / 1e6
        )
        for country, mask in frame.groupby_country().items()
    }
    return fig2_country.Fig2Result(rows=country_breakdown(frame), daily_download_mb=daily)


def fig3_oracle(frame, top: int = 10):
    shares = {}
    for country, _, _ in country_breakdown(frame)[:top]:
        shares[country] = protocol_volume_share(frame, frame.country_mask(country))
    return fig3_protocol_country.Fig3Result(shares=shares)


def fig6_oracle(frame, countries=TOP_COUNTRIES):
    """Mean over the capture's days of each country's daily users per
    service, as a share of the country's customers."""
    labels, names = ServiceClassifier().label_frame(frame)
    days = np.unique(frame.day)
    matrix = {s: {} for s in fig6_service_popularity.HEATMAP_SERVICES}
    for country in countries:
        country_mask = frame.country_mask(country)
        denom = len(np.unique(frame.customer_id[country_mask]))
        if denom == 0:
            continue
        for service in fig6_service_popularity.HEATMAP_SERVICES:
            mask = country_mask & (labels == names.index(service))
            daily = [
                len(np.unique(frame.customer_id[mask & (frame.day == day)]))
                for day in days
            ]
            matrix[service][country] = float(np.mean(daily) / denom * 100.0)
    return fig6_service_popularity.Fig6Result(matrix=matrix)


def table2_group_of_flows(frame) -> np.ndarray:
    """Per flow, the index of its Table 2 domain group, else -1."""
    return np.append(table2_group_of_domains(frame.domains), -1)[frame.domain_idx]


def table2_oracle(frame, countries=("UK", "Nigeria"), min_samples: int = 5):
    """Mean ground RTT per (country, dominant resolver, domain group)."""
    flow_group = table2_group_of_flows(frame)
    resolver_of = dominant_resolver_per_customer(frame)
    flow_resolver = np.array(
        [resolver_of.get(int(c), -1) for c in frame.customer_id], dtype=np.int16
    )
    has_rtt = np.isfinite(frame.ground_rtt_ms)
    means, counts = {}, {}
    for country in countries:
        c_mask = frame.country_mask(country) & has_rtt & (flow_group >= 0)
        for r_idx, resolver in enumerate(frame.resolvers):
            r_mask = c_mask & (flow_resolver == r_idx)
            for g_idx, group in enumerate(TABLE2_DOMAIN_GROUPS):
                values = frame.ground_rtt_ms[r_mask & (flow_group == g_idx)]
                if len(values) >= min_samples:
                    key = (country, resolver, group)
                    means[key] = float(values.astype(np.float64).mean())
                    counts[key] = int(len(values))
    return table2_resolver_rtt.Table2Result(mean_rtt_ms=means, sample_counts=counts)


def fig12_oracle(frame):
    """Sessions deduped on their id (chunk flows repeat the QoE triple),
    dropped when off-plan or non-finite, summed per (plan, country)."""
    shape = (len(PLAN_ORDER), len(frame.countries))
    sums = [np.zeros(shape, dtype=np.int64)] + [np.zeros(shape) for _ in range(3)]
    _, first = np.unique(frame.session_id, return_index=True)
    first = first[frame.session_id[first] >= 0]
    plans = plan_index_bulk(frame.plan_down_mbps[first])
    for i, plan in zip(first.tolist(), plans.tolist()):
        qoe = (frame.qoe_rebuffer[i], frame.qoe_level[i], frame.qoe_switches[i])
        if plan < 0 or not (math.isfinite(qoe[0]) and math.isfinite(qoe[1])):
            continue
        cell = (plan, int(frame.country_idx[i]))
        sums[0][cell] += 1
        for total, value in zip(sums[1:], qoe):
            total[cell] += float(value)
    return fig12_video_qoe.Fig12Result(list(frame.countries), PLAN_ORDER, *sums)


REPORTS = {
    "table1": (table1_protocols, table1_oracle),
    "fig2": (fig2_country, fig2_oracle),
    "fig3": (fig3_protocol_country, fig3_oracle),
    "fig6": (fig6_service_popularity, fig6_oracle),
    "table2": (table2_resolver_rtt, table2_oracle),
    "fig12": (fig12_video_qoe, fig12_oracle),
}


# -- comparison ----------------------------------------------------------------


def assert_same(got, want, path="result"):
    """Structure, keys, order and integers equal; floats to 1e-12."""
    if hasattr(want, "__dataclass_fields__"):
        assert type(got) is type(want), path
        for name in want.__dataclass_fields__:
            assert_same(getattr(got, name), getattr(want, name), f"{path}.{name}")
    elif isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_same(got[key], want[key], f"{path}[{key!r}]")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same(a, b, f"{path}[{i}]")
    elif isinstance(want, np.ndarray):
        assert got.shape == want.shape and got.dtype == want.dtype, path
        if want.dtype.kind in "iub":
            np.testing.assert_array_equal(got, want, err_msg=path)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=path)
    elif isinstance(want, float):
        assert isinstance(got, float), path
        assert got == want or got == pytest.approx(want, rel=1e-12, abs=0), path
    else:
        assert type(got) is type(want) and got == want, path


def assert_matches_oracle(frame, names=REPORTS):
    rollup = FrameSource(frame).to_rollup()
    for name in names:
        module, oracle = REPORTS[name]
        got, want = module.from_rollup(rollup), oracle(frame)
        assert_same(got, want, name)
        assert module.render(got) == module.render(want), name


# -- frames --------------------------------------------------------------------

def _one_congolese_customer(frame):
    first = np.argmax(frame.country_mask("Congo"))
    return frame.filter(frame.customer_id == frame.customer_id[first])


SLICES = {
    "whole capture": lambda f: f,
    "every 7th customer": lambda f: f.filter(f.customer_id % 7 == 0),
    "single customer": _one_congolese_customer,
    "one-day slice": lambda f: f.filter(f.day == 1),
    "no-DNS slice": lambda f: f.filter(f.resolver_idx < 0),
    "empty frame": lambda f: f.filter(np.zeros(len(f), dtype=bool)),
}


@pytest.fixture(scope="module")
def video_frame():
    """video-streaming: 60 customers over 2 days, with video sessions."""
    scenario = get_scenario("video-streaming").with_overrides(
        {"population.n_customers": 60, "workload.days": 2, "workload.seed": 3}
    )
    return scenario.build_generator().generate()


@pytest.mark.parametrize("case", list(SLICES))
def test_exact_reports_match_oracle(small_frame, case):
    frame = SLICES[case](small_frame)
    assert_matches_oracle(frame)


def test_exact_reports_match_oracle_with_sessions(video_frame):
    assert (video_frame.session_id >= 0).any()
    assert_matches_oracle(video_frame)
    result = fig12_video_qoe.from_rollup(FrameSource(video_frame).to_rollup())
    assert result.total_sessions() > 0


def test_oracle_cases_are_not_degenerate(small_frame):
    """Each slice keeps what it is meant to test."""
    assert len(np.unique(SLICES["one-day slice"](small_frame).day)) == 1
    assert (SLICES["no-DNS slice"](small_frame).resolver_idx < 0).all()
    assert len(np.unique(SLICES["single customer"](small_frame).customer_id)) == 1
    sliced = SLICES["every 7th customer"](small_frame)
    assert 0 < len(np.unique(sliced.customer_id)) < len(np.unique(small_frame.customer_id))
    assert table2_oracle(small_frame).mean_rtt_ms
