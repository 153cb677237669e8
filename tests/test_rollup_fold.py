"""The sort-free rollup fold against a sort-based oracle.

``StreamRollup.update`` groups flows through dense (customer, day)
cells and bins values by an arithmetic guess with an exact edge
correction. This module keeps the fold it replaced — stable sorts,
``np.add.reduceat`` and ``np.searchsorted`` — as the oracle, and checks
bank by bank that both fold the same frames to the same bytes, and that
the binning equals ``searchsorted`` on every declared edge array.
"""

import numpy as np
import pytest

from repro.analysis.aggregate import (
    fold_video_sessions,
    local_hour_of,
    table2_group_of_domains,
)
from repro.analysis.classify import FIG7_CATEGORIES
from repro.constants import (
    ACTIVE_CUSTOMER_FLOW_THRESHOLD,
    BULK_FLOW_MIN_BYTES,
    NIGHT_HOURS,
    PEAK_HOURS,
)
from repro.flowmeter.records import L7Protocol, L7_ORDER
from repro.scenario import get_scenario
from repro.stream import HistFamily, StreamRollup
from repro.traffic.workload import WorkloadConfig, WorkloadGenerator

# -- binning -----------------------------------------------------------------

EDGE_FAMILIES = sorted(name for name in vars(StreamRollup) if name.endswith("_EDGES"))


def test_every_bank_edge_array_is_a_declared_family():
    declared = {id(getattr(StreamRollup, name)) for name in EDGE_FAMILIES}
    banks = [b for b in StreamRollup.BANKS if hasattr(b, "edges")]
    assert banks and all(id(bank.edges) in declared for bank in banks)


@pytest.mark.parametrize("name", EDGE_FAMILIES)
def test_bin_equals_searchsorted(name):
    edges = getattr(StreamRollup, name)
    hist = HistFamily(edges, 1)
    rng = np.random.default_rng(len(edges))
    lo, hi = edges[0], edges[-1]
    values = np.concatenate(
        [
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            [0.0, -0.0, -1.0, -1e300, 5e-324, hi * 10, 1e300],
            rng.uniform(lo - (hi - lo) / 10, hi * 1.1, 100_000),
            10.0 ** rng.uniform(np.log10(max(lo, 1e-3)) - 1, np.log10(hi) + 1, 100_000),
        ]
    )
    want = np.searchsorted(edges, values, side="right") - 1
    np.testing.assert_array_equal(hist.bin(values), want)
    narrow = values[np.abs(values) < np.finfo(np.float32).max].astype(np.float32)
    np.testing.assert_array_equal(
        hist.bin(narrow), np.searchsorted(edges, narrow, side="right") - 1
    )


def test_edges_neither_linear_nor_log_are_rejected():
    with pytest.raises(ValueError, match="evenly spaced"):
        HistFamily(np.array([0.0, 1.0, 3.0, 10.0]), 1)


# -- the sort-based oracle ---------------------------------------------------


def _ref_add(hist, rows, bin_idx, weights=None):
    if len(bin_idx) == 0:
        return
    w = np.ones(len(bin_idx)) if weights is None else np.asarray(weights, np.float64)
    nb = hist.counts.shape[1]
    low = bin_idx < 0
    high = bin_idx >= nb
    mid = ~(low | high)
    if mid.any():
        flat = rows[mid].astype(np.int64) * nb + bin_idx[mid]
        hist.counts += np.bincount(
            flat, weights=w[mid], minlength=hist.n_rows * nb
        ).reshape(hist.n_rows, nb)
    if low.any():
        hist.under += np.bincount(rows[low], weights=w[low], minlength=hist.n_rows)
    if high.any():
        hist.over += np.bincount(rows[high], weights=w[high], minlength=hist.n_rows)


def _ref_bin(hist, values):
    return np.searchsorted(hist.edges, values, side="right") - 1


def _ref_update(hist, rows, values, weights=None):
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    rows, values = rows[finite], values[finite]
    if weights is not None:
        weights = weights[finite]
    _ref_add(hist, rows, _ref_bin(hist, values), weights)


def _groups(keys):
    """Stable-sort ``keys``: (order, group starts)."""
    order = np.argsort(keys, kind="stable")
    starts = np.concatenate(([0], np.flatnonzero(np.diff(keys[order])) + 1))
    return order, starts


def reference_fold(rollup: StreamRollup, frame) -> StreamRollup:
    """The sort-based fold ``StreamRollup.update`` replaced."""
    rollup.windows_folded += 1
    nc = len(rollup.countries)
    c = frame.country_idx.astype(np.int64)
    hour = frame.hour_utc.astype(np.int64) % 24
    vol = frame.bytes_total()
    rollup.flows_total += len(frame)
    rollup.bytes_up_c += np.bincount(c, weights=frame.bytes_up, minlength=nc)
    rollup.bytes_down_c += np.bincount(c, weights=frame.bytes_down, minlength=nc)
    rollup.flows_c += np.bincount(c, minlength=nc)
    nl = len(L7_ORDER)
    flat = (c * nl + frame.l7_idx.astype(np.int64)) * 24 + hour
    rollup.vol_clh += np.bincount(flat, vol, minlength=nc * nl * 24).reshape(nc, nl, 24)
    ns1 = len(rollup.services) + 1
    flat = (c * ns1 + frame.service_true_idx.astype(np.int64) + 1) * 24 + hour
    rollup.vol_csh += np.bincount(flat, vol, minlength=nc * ns1 * 24).reshape(nc, ns1, 24)
    for day in np.unique(frame.day):
        mask = frame.day == day
        matrix = rollup.vol_day.setdefault(int(day), np.zeros((nc, 24)))
        matrix += np.bincount(
            c[mask] * 24 + hour[mask], weights=vol[mask], minlength=nc * 24
        ).reshape(nc, 24)
    pairs = np.unique(c * 1_000_000 + frame.customer_id)
    for pair in pairs.tolist():
        rollup._customers[pair // 1_000_000].add(pair % 1_000_000)

    # Figure 5: group by (customer, day)
    order, starts = _groups(frame.customer_id.astype(np.int64) * 100_000 + frame.day)
    flows = np.diff(np.concatenate((starts, [len(frame)]))).astype(np.float64)
    down = np.add.reduceat(frame.bytes_down[order], starts)
    up = np.add.reduceat(frame.bytes_up[order], starts)
    country = c[order][starts]
    rollup.cd_total_c += np.bincount(country, minlength=nc)
    idle = flows < ACTIVE_CUSTOMER_FLOW_THRESHOLD
    rollup.cd_idle_c += np.bincount(country[idle], minlength=nc)
    _ref_update(rollup.h5_flows, country, flows)
    _ref_update(rollup.h5_down, country[~idle], down[~idle])
    _ref_update(rollup.h5_up, country[~idle], up[~idle])

    # Figures 8, 9, 11
    local = local_hour_of(frame)
    has = np.isfinite(frame.sat_rtt_ms)
    sat, sat_c, sat_hour = frame.sat_rtt_ms[has].astype(np.float64), c[has], local[has]
    bins = _ref_bin(rollup.h8_hour, sat)
    night = (sat_hour >= NIGHT_HOURS[0]) & (sat_hour < NIGHT_HOURS[1])
    peak = (sat_hour >= PEAK_HOURS[0]) & (sat_hour < PEAK_HOURS[1])
    _ref_add(rollup.h8_night, sat_c[night], bins[night])
    _ref_add(rollup.h8_peak, sat_c[peak], bins[peak])
    _ref_add(rollup.h8_hour, sat_c * 24 + sat_hour.astype(np.int64) % 24, bins)
    if (night | peak).any():
        np.minimum.at(rollup.sat_min_c, sat_c[night | peak], sat[night | peak])
    tcp = np.isin(
        frame.l7_idx,
        [L7_ORDER.index(p) for p in (L7Protocol.HTTPS, L7Protocol.HTTP, L7Protocol.OTHER_TCP)],
    )
    ok = tcp & np.isfinite(frame.ground_rtt_ms)
    bins = _ref_bin(rollup.h9_cnt, frame.ground_rtt_ms[ok].astype(np.float64))
    _ref_add(rollup.h9_cnt, c[ok], bins)
    _ref_add(rollup.h9_vol, c[ok], bins, weights=vol[ok])
    with np.errstate(divide="ignore", invalid="ignore"):
        mbps = frame.bytes_down * 8.0 / frame.duration_s / 1e6
    bulk = (frame.bytes_down >= BULK_FLOW_MIN_BYTES) & np.isfinite(mbps)
    bulk_c, bulk_hour = c[bulk], local[bulk]
    bins = _ref_bin(rollup.h11_all, mbps[bulk])
    night = (bulk_hour >= NIGHT_HOURS[0]) & (bulk_hour < NIGHT_HOURS[1])
    peak = (bulk_hour >= PEAK_HOURS[0]) & (bulk_hour < PEAK_HOURS[1])
    _ref_add(rollup.h11_all, bulk_c, bins)
    _ref_add(rollup.h11_night, bulk_c[night], bins[night])
    _ref_add(rollup.h11_peak, bulk_c[peak], bins[peak])

    # Figures 6/7: group by (service, customer, day) and (category, ...)
    pool_labels, _ = rollup._classifier.classify_pool(frame.domains)
    labels = np.full(len(frame), -1, dtype=np.int64)
    has_domain = frame.domain_idx >= 0
    labels[has_domain] = pool_labels[frame.domain_idx[has_domain]]
    matched = labels >= 0
    if matched.any():
        n_svc = len(rollup.classifier_services)
        lab, cc = labels[matched], c[matched]
        cust = frame.customer_id[matched].astype(np.int64)
        day = frame.day[matched].astype(np.int64)
        order, starts = _groups((lab * 1_000_000 + cust) * 100_000 + day)
        rollup.svc_cust_days += np.bincount(
            cc[order][starts] * n_svc + lab[order][starts], minlength=nc * n_svc
        ).reshape(nc, n_svc)
        cat_of_label = np.array(
            [
                FIG7_CATEGORIES.index(r.category) if r.category in FIG7_CATEGORIES else -1
                for r in rollup._classifier.rules
            ]
        )
        cat = cat_of_label[lab]
        has_cat = cat >= 0
        if has_cat.any():
            order, starts = _groups(
                (cat[has_cat] * 1_000_000 + cust[has_cat]) * 100_000 + day[has_cat]
            )
            sums = np.add.reduceat(vol[matched][has_cat][order], starts)
            rows = cat[has_cat][order][starts] * nc + cc[has_cat][order][starts]
            _ref_update(rollup.h7_volume, rows, sums)

    # Figure 10 and Table 2: group by customer
    nr = len(rollup.resolvers)
    if nr:
        dns = frame.resolver_idx >= 0
        res = frame.resolver_idx.astype(np.int64)
        rollup.dns_cr += np.bincount(c[dns] * nr + res[dns], minlength=nc * nr).reshape(nc, nr)
        resp_ok = dns & np.isfinite(frame.dns_response_ms)
        _ref_update(rollup.h10_resp, res[resp_ok], frame.dns_response_ms[resp_ok])
        ng = len(rollup.t2_groups)
        pool_group = np.append(table2_group_of_domains(frame.domains), -1)
        group = pool_group[frame.domain_idx].astype(np.int64)
        rtt_ok = np.isfinite(frame.ground_rtt_ms) & (group >= 0)
        relevant = np.flatnonzero(dns | rtt_ok)
        if len(relevant):
            order, starts = _groups(frame.customer_id[relevant].astype(np.int64))
            ends = np.concatenate((starts[1:], [len(relevant)]))
            for lo, hi in zip(starts, ends):
                seg = relevant[order[lo:hi]]
                vec = rollup._t2.setdefault(
                    int(frame.customer_id[seg[0]]), np.zeros(nr + 2 * ng)
                )
                seg_dns = seg[dns[seg]]
                if len(seg_dns):
                    vec[:nr] += np.bincount(res[seg_dns], minlength=nr)
                seg_rtt = seg[rtt_ok[seg]]
                if len(seg_rtt):
                    rtt = frame.ground_rtt_ms[seg_rtt].astype(np.float64)
                    vec[nr : nr + ng] += np.bincount(group[seg_rtt], rtt, minlength=ng)
                    vec[nr + ng :] += np.bincount(group[seg_rtt], minlength=ng)

    # Figure 12
    rows, rebuffer, level, sums = fold_video_sessions(frame)
    rollup.qoe_sessions += sums[0]
    rollup.qoe_rebuffer_sum += sums[1]
    rollup.qoe_level_sum += sums[2]
    rollup.qoe_switch_sum += sums[3]
    _ref_update(rollup.h12_rebuf, rows, rebuffer)
    _ref_update(rollup.h12_level, rows, level)
    return rollup


# -- fold equivalence --------------------------------------------------------


@pytest.fixture(scope="module")
def geo_frame():
    """baseline-style workload: 120 customers, 3 days, DNS, no sessions."""
    return WorkloadGenerator(WorkloadConfig(n_customers=120, days=3, seed=11)).generate()


@pytest.fixture(scope="module")
def video_frame():
    """video-streaming: 60 customers over 2 days, with video sessions."""
    scenario = get_scenario("video-streaming").with_overrides(
        {"population.n_customers": 60, "workload.days": 2, "workload.seed": 3}
    )
    return scenario.build_generator().generate()


def _diverging(a: StreamRollup, b: StreamRollup):
    mine, theirs = a.bank_digests(), b.bank_digests()
    assert mine.keys() == theirs.keys()
    return sorted(name for name in mine if mine[name] != theirs[name])


def _assert_folds_agree(windows):
    fold = StreamRollup.for_frame(windows[0])
    oracle = StreamRollup.for_frame(windows[0])
    for frame in windows:
        fold.update(frame)
        reference_fold(oracle, frame)
    assert _diverging(fold, oracle) == [], "banks diverged from the sort-based fold"
    assert fold.state_digest() == oracle.state_digest()
    return fold


CASES = {
    "one-day window": lambda f: [f.filter(f.day == 0)],
    "two-day window": lambda f: [f.filter(f.day >= 1)],
    "windows in sequence": lambda f: [f.filter(f.day == 0), f.filter(f.day >= 1)],
    "a day without flows inside the window": lambda f: [f.filter(f.day != 1)],
    "every 7th customer, all days": lambda f: [f.filter(f.customer_id % 7 == 0)],
    "no DNS flows": lambda f: [f.filter(f.resolver_idx < 0)],
    "single customer": lambda f: [f.filter(f.customer_id == f.customer_id[len(f) // 2])],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fold_matches_sort_based_oracle(geo_frame, case):
    windows = CASES[case](geo_frame)
    assert all(len(w) for w in windows)
    _assert_folds_agree(windows)


def test_fold_matches_oracle_with_sessions(video_frame):
    rollup = _assert_folds_agree([video_frame])
    assert rollup.qoe_sessions.sum() > 0


def test_fold_matches_oracle_without_sessions(video_frame):
    frame = video_frame.filter(video_frame.session_id < 0)
    rollup = _assert_folds_agree([frame])
    assert rollup.qoe_sessions.sum() == 0


def test_fold_rejects_a_customer_in_two_countries(geo_frame):
    frame = geo_frame.filter(geo_frame.day == 0)
    moved = frame.country_idx.copy()
    first = np.flatnonzero(frame.customer_id == frame.customer_id[0])[0]
    moved[first] = (moved[first] + 1) % len(frame.countries)
    frame.country_idx = moved
    with pytest.raises(ValueError, match="one country per customer"):
        StreamRollup.for_frame(frame).update(frame)


# -- per-bank digests --------------------------------------------------------


def test_bank_digests_name_every_bank_and_the_diverging_one(geo_frame):
    frame = geo_frame.filter(geo_frame.day == 0)
    rollup = StreamRollup.for_frame(frame).update(frame)
    digests = rollup.bank_digests()
    keyed = {"counters", "_customers", "vol_day", "_t2", "meta"}
    assert set(digests) == {bank.name for bank in StreamRollup.BANKS} | keyed
    other = rollup.copy()
    assert other.bank_digests() == digests
    other.h9_vol.counts[0, 0] += 1.0
    assert _diverging(rollup, other) == ["h9_vol"]
    other = rollup.copy()
    other._t2[next(iter(other._t2))][0] += 1.0
    assert _diverging(rollup, other) == ["_t2"]
    other = rollup.copy()
    other.resolvers = other.resolvers[::-1]
    assert other.state_digest() != rollup.state_digest()
    assert _diverging(rollup, other) == ["meta"]
