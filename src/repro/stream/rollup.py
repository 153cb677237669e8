"""Mergeable rollup sketches for streaming captures.

The paper's Spark jobs reduce 34.4 G flows to hourly aggregate views
(Section 3.1); this module is the streaming equivalent: every sketch
supports ``update(frame)`` with one capture window and ``merge(other)``
with another sketch, and both operations are associative — fold the
windows in any grouping and the bits come out the same. That is the
property checkpoint/resume relies on: a resumed capture replays *no*
flows, it just keeps folding new windows into the saved state.

What the sketches retain is exactly what the rollup-served figures
need:

* per-country volume/flow/customer counters         → Figure 2 / Table 1
* a (country, l7, hour) volume matrix               → Figure 3
* per-(country, day) hourly volume matrices         → Figure 4
* per-country customer-day histograms + counters    → Figure 5
* classifier service-popularity counters            → Figure 6
* per-(category, country) customer-day volume hists → Figure 7
* night/peak satellite-RTT histograms per country   → Figure 8a
* per-(country, local-hour) satellite-RTT histograms → Figure 8b
  (the RTT-vs-time-of-day axis the constellation engine needs)
* ground-RTT histograms (count & volume weighted)   → Figure 9
* (country, resolver) DNS counters + response hists → Figure 10
* per-country bulk-flow throughput histograms       → Figure 11
* per-(country, plan) video-session QoE bank        → Figure 12
* per-customer resolver/domain-group RTT banks      → Table 2

Every fixed-shape bank is declared once, in :attr:`StreamRollup.BANKS`;
construction, ``merge``, ``copy``, ``save``/``load`` and
``state_digest`` walk that table. Only the two counters and the three
keyed banks, which grow with the capture (per-country customer sets,
per-day volumes, per-customer Table 2 vectors), are handled by name.

``update`` must see *whole* windows whose boundaries fall on day
edges (the producer guarantees this): the customer-day sketches
(Figures 5/6/7) are only exact when no customer-day straddles two
updates.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.aggregate import (
    fold_video_sessions,
    local_hour_of,
    table2_group_of_flows,
)
from repro.analysis.source import CaptureError
from repro.faults import FaultInjector, atomic_write_bytes
from repro.analysis.classify import FIG7_CATEGORIES, ServiceClassifier
from repro.analysis.dataset import FlowFrame
from repro.analysis.domains import TABLE2_DOMAIN_GROUPS
from repro.constants import (
    ACTIVE_CUSTOMER_FLOW_THRESHOLD,
    BULK_FLOW_MIN_BYTES,
    NIGHT_HOURS,
    PEAK_HOURS,
)
from repro.flowmeter.records import L7Protocol, L7_ORDER
from repro.satcom.plans import PLAN_ORDER
from repro.traffic.services import ServiceCategory

#: Bump when the sketch layout changes; saved states refuse to load
#: across schema versions instead of mis-merging.
#: v3 added the per-(country, local-hour) satellite-RTT bank (h8_hour).
#: v4 added the per-(country, plan) video-session QoE bank (Figure 12).
ROLLUP_SCHEMA = 4

_TCP_L7 = (L7Protocol.HTTPS, L7Protocol.HTTP, L7Protocol.OTHER_TCP)


def _decade_edges(lo_exp: int, hi_exp: int, per_decade: int = 12) -> np.ndarray:
    """Log-spaced bin edges with exact values at every decade."""
    return 10.0 ** (
        np.arange(0, (hi_exp - lo_exp) * per_decade + 1) / per_decade + lo_exp
    )


class HistFamily:
    """A bank of fixed-bin histograms, one row per category (country).

    Counts are float64 so the same class serves count-weighted and
    volume-weighted histograms; out-of-range mass is kept in explicit
    under/overflow columns so totals are exact. ``quantile``/``cdf_at``
    interpolate linearly inside a bin, which bounds their error by the
    bin width.
    """

    def __init__(self, edges: np.ndarray, n_rows: int) -> None:
        self.edges = np.asarray(edges, dtype=np.float64)
        if len(self.edges) < 2 or np.any(np.diff(self.edges) <= 0):
            raise ValueError("edges must be strictly increasing, len >= 2")
        self.counts = np.zeros((n_rows, len(self.edges) - 1), dtype=np.float64)
        self.under = np.zeros(n_rows, dtype=np.float64)
        self.over = np.zeros(n_rows, dtype=np.float64)

    @property
    def n_rows(self) -> int:
        return self.counts.shape[0]

    def update(
        self,
        rows: np.ndarray,
        values: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        """Fold ``values`` (category per ``rows``) into the bank."""
        values = np.asarray(values, dtype=np.float64)
        finite = np.isfinite(values)
        if not finite.all():
            rows, values = rows[finite], values[finite]
            if weights is not None:
                weights = weights[finite]
        self.add(rows, self.bin(values), weights)

    def bin(self, values: np.ndarray) -> np.ndarray:
        """Bin index of each finite float64 value: -1 below the first
        edge, ``n_bins`` at or above the last. Banks with equal edges
        share one binning of the same values."""
        return np.searchsorted(self.edges, values, side="right") - 1

    def add(
        self,
        rows: np.ndarray,
        bin_idx: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        """Fold values already binned by :meth:`bin` on these edges."""
        if len(bin_idx) == 0:
            return
        w = np.ones(len(bin_idx)) if weights is None else np.asarray(weights, np.float64)
        nb = self.counts.shape[1]
        low = bin_idx < 0
        high = bin_idx >= nb
        mid = ~(low | high)
        if mid.any():
            flat = rows[mid].astype(np.int64) * nb + bin_idx[mid]
            self.counts += np.bincount(
                flat, weights=w[mid], minlength=self.n_rows * nb
            ).reshape(self.n_rows, nb)
        if low.any():
            self.under += np.bincount(rows[low], weights=w[low], minlength=self.n_rows)
        if high.any():
            self.over += np.bincount(rows[high], weights=w[high], minlength=self.n_rows)

    def merge(self, other: "HistFamily") -> None:
        if self.counts.shape != other.counts.shape or not np.array_equal(
            self.edges, other.edges
        ):
            raise ValueError("cannot merge histograms with different binning")
        self.counts += other.counts
        self.under += other.under
        self.over += other.over

    def copy(self) -> "HistFamily":
        """An unaliased copy; only the read-only edges are shared."""
        other = HistFamily.__new__(HistFamily)
        other.edges = self.edges
        other.counts = self.counts.copy()
        other.under = self.under.copy()
        other.over = self.over.copy()
        return other

    # -- queries -------------------------------------------------------

    def total(self, row: int) -> float:
        return float(self.counts[row].sum() + self.under[row] + self.over[row])

    def cdf_at(self, row: int, x: float) -> float:
        """P(X <= x), linear inside the containing bin."""
        total = self.total(row)
        if total == 0:
            return float("nan")
        below = self.under[row]
        idx = int(np.searchsorted(self.edges, x, side="right")) - 1
        if idx < 0:
            return float(below / total)
        if idx >= self.counts.shape[1]:
            return float((total - self.over[row]) / total + self.over[row] / total)
        below += self.counts[row, :idx].sum()
        lo, hi = self.edges[idx], self.edges[idx + 1]
        below += self.counts[row, idx] * (x - lo) / (hi - lo)
        return float(below / total)

    def ccdf_at(self, row: int, x: float) -> float:
        return 1.0 - self.cdf_at(row, x)

    def quantile(self, row: int, q: float) -> float:
        total = self.total(row)
        if total == 0:
            return float("nan")
        target = q * total
        cum = self.under[row]
        if target <= cum:
            return float(self.edges[0])
        for idx in range(self.counts.shape[1]):
            nxt = cum + self.counts[row, idx]
            if target <= nxt and self.counts[row, idx] > 0:
                frac = (target - cum) / self.counts[row, idx]
                return float(
                    self.edges[idx] + frac * (self.edges[idx + 1] - self.edges[idx])
                )
            cum = nxt
        return float(self.edges[-1])

    def quantiles(self, row: int, qs: Sequence[float] = (0.25, 0.5, 0.75)) -> np.ndarray:
        return np.array([self.quantile(row, q) for q in qs])


_Dims = Mapping[str, int]
_State = Mapping[str, np.ndarray]


def _restore(data: _State, key: str, shape: Tuple[int, ...]) -> np.ndarray:
    array = data[key]
    if array.shape != shape:
        raise ValueError(f"{key} has shape {array.shape}, expected {shape}")
    return array.copy()


@dataclass(frozen=True, eq=False)
class ArrayBank:
    """A fixed-shape state array, saved under its attribute name.

    ``axes`` are keys of ``StreamRollup._dims()`` or literal lengths.
    ``merge`` is the ufunc that folds another rollup's bank in place;
    ``fill`` is its identity, the value of an empty bank.
    """

    name: str
    dtype: type
    axes: Tuple[Union[str, int], ...]
    merge: np.ufunc = np.add
    fill: float = 0.0

    def shape(self, dims: _Dims) -> Tuple[int, ...]:
        return tuple(dims[a] if isinstance(a, str) else a for a in self.axes)

    def empty(self, dims: _Dims) -> np.ndarray:
        return np.full(self.shape(dims), self.fill, dtype=self.dtype)

    def fold(self, mine: np.ndarray, theirs: np.ndarray) -> None:
        self.merge(mine, theirs, out=mine)

    def arrays(self, bank: np.ndarray) -> Dict[str, np.ndarray]:
        return {self.name: bank}

    def restore(self, data: _State, dims: _Dims) -> np.ndarray:
        return _restore(data, self.name, self.shape(dims))


_HIST_PARTS = ("counts", "under", "over")


@dataclass(frozen=True, eq=False)
class HistBank:
    """A :class:`HistFamily` with ``dims[rows]`` rows, saved as
    ``{name}_counts``, ``{name}_under`` and ``{name}_over``."""

    name: str
    edges: np.ndarray
    rows: str

    def empty(self, dims: _Dims) -> HistFamily:
        return HistFamily(self.edges, dims[self.rows])

    def fold(self, mine: HistFamily, theirs: HistFamily) -> None:
        mine.merge(theirs)

    def arrays(self, hist: HistFamily) -> Dict[str, np.ndarray]:
        return {f"{self.name}_{part}": getattr(hist, part) for part in _HIST_PARTS}

    def restore(self, data: _State, dims: _Dims) -> HistFamily:
        hist = self.empty(dims)
        for part in _HIST_PARTS:
            key = f"{self.name}_{part}"
            setattr(hist, part, _restore(data, key, getattr(hist, part).shape))
        return hist


class StreamRollup:
    """The composite mergeable aggregate of a streaming capture."""

    #: Customer-day flows per day: 1 .. 1e6, 12 bins/decade.
    FLOW_EDGES = _decade_edges(0, 6)
    #: Customer-day bytes: 1 kB .. 1 TB with exact decade edges, so the
    #: 1 GB / 10 GB heavy-hitter thresholds are bin boundaries.
    BYTE_EDGES = _decade_edges(3, 12)
    #: Satellite RTT, ms: linear 0..5000 in 25 ms bins.
    SAT_EDGES = np.linspace(0.0, 5000.0, 201)
    #: Ground RTT, ms: 1..1000, 24 bins/decade.
    GROUND_EDGES = _decade_edges(0, 3, per_decade=24)
    #: Figure 7 customer-day category bytes: 1 B .. 1 TB, 24 bins/decade.
    CAT_BYTE_EDGES = _decade_edges(0, 12, per_decade=24)
    #: Figure 10 DNS response time, ms: 0.1 ms .. 10 s, 24 bins/decade.
    DNS_EDGES = _decade_edges(-1, 4, per_decade=24)
    #: Figure 11 bulk-flow throughput, Mb/s: 0.01 .. 1000, 48 bins/decade.
    TPUT_EDGES = _decade_edges(-2, 3, per_decade=48)
    #: Figure 12 rebuffer ratio: linear 0..1 in 2 % bins.
    QOE_REBUF_EDGES = np.linspace(0.0, 1.0, 51)
    #: Figure 12 mean resolution level: linear 0..8 in 0.1-level bins
    #: (room for ladders longer than the default five rungs).
    QOE_LEVEL_EDGES = np.linspace(0.0, 8.0, 81)

    #: Every fixed-shape bank, declared once. Adding one takes an entry
    #: here, its fold code in :meth:`update` and a ``ROLLUP_SCHEMA``
    #: bump. A flattened row axis puts the group first
    #: (row = group * n_countries + country), except ``country_hour``
    #: (row = country * 24 + local hour).
    BANKS: Tuple[Union[ArrayBank, HistBank], ...] = (
        # Figure 2: per-country counters
        ArrayBank("bytes_up_c", np.float64, ("country",)),
        ArrayBank("bytes_down_c", np.float64, ("country",)),
        ArrayBank("flows_c", np.int64, ("country",)),
        # Figure 3: (country, l7, hour) volume
        ArrayBank("vol_clh", np.float64, ("country", "l7", 24)),
        # Figures 6/7-style: (country, service, hour) volume
        ArrayBank("vol_csh", np.float64, ("country", "service", 24)),
        # Figure 5: customer-day counters and histograms
        ArrayBank("cd_total_c", np.int64, ("country",)),
        ArrayBank("cd_idle_c", np.int64, ("country",)),
        HistBank("h5_flows", FLOW_EDGES, "country"),
        HistBank("h5_down", BYTE_EDGES, "country"),
        HistBank("h5_up", BYTE_EDGES, "country"),
        # Figure 6: Σ over days of distinct customers per (country,
        # classifier service); exact under day-aligned windows
        ArrayBank("svc_cust_days", np.int64, ("country", "classifier")),
        # Figure 7: customer-day volume per (category, country)
        HistBank("h7_volume", CAT_BYTE_EDGES, "category_country"),
        # Figure 8a: night/peak satellite RTT and its exact minimum
        HistBank("h8_night", SAT_EDGES, "country"),
        HistBank("h8_peak", SAT_EDGES, "country"),
        ArrayBank("sat_min_c", np.float64, ("country",), np.minimum, np.inf),
        # Figure 8b: satellite RTT vs local time of day. Flat for GEO;
        # the constellation engine makes the per-hour medians move.
        HistBank("h8_hour", SAT_EDGES, "country_hour"),
        # Figure 9: ground RTT, count- and volume-weighted
        HistBank("h9_cnt", GROUND_EDGES, "country"),
        HistBank("h9_vol", GROUND_EDGES, "country"),
        # Figure 10: DNS flows per (country, resolver) — exact shares —
        # plus per-resolver response-time histograms
        ArrayBank("dns_cr", np.int64, ("country", "resolver")),
        HistBank("h10_resp", DNS_EDGES, "resolver_rows"),
        # Figure 11: bulk-flow throughput, all / night / peak
        HistBank("h11_all", TPUT_EDGES, "country"),
        HistBank("h11_night", TPUT_EDGES, "country"),
        HistBank("h11_peak", TPUT_EDGES, "country"),
        # Figure 12: video-session QoE per (plan, country). A session
        # lives inside one (customer, day), so it never straddles
        # windows and folding windows in any order is exact.
        ArrayBank("qoe_sessions", np.int64, ("plan_country",)),
        ArrayBank("qoe_rebuffer_sum", np.float64, ("plan_country",)),
        ArrayBank("qoe_level_sum", np.float64, ("plan_country",)),
        ArrayBank("qoe_switch_sum", np.float64, ("plan_country",)),
        HistBank("h12_rebuf", QOE_REBUF_EDGES, "plan_country"),
        HistBank("h12_level", QOE_LEVEL_EDGES, "plan_country"),
    )

    def __init__(
        self,
        countries: Sequence[str],
        services: Sequence[str],
        resolvers: Sequence[str] = (),
    ) -> None:
        self.countries = list(countries)
        self.services = list(services)
        self.resolvers = list(resolvers)
        self._classifier = ServiceClassifier()
        self.classifier_services = [r.service for r in self._classifier.rules]
        self._t2_groups = list(TABLE2_DOMAIN_GROUPS)

        self.flows_total = 0
        self.windows_folded = 0
        dims = self._dims()
        for bank in self.BANKS:
            setattr(self, bank.name, bank.empty(dims))
        # Keyed banks, grown by the capture. Figure 2: distinct customers
        # per country. Figure 4: day -> (country, hour) volume. Table 2:
        # customer -> DNS flows per resolver plus ground-RTT (sum, count)
        # per domain group.
        self._customers: List[set] = [set() for _ in self.countries]
        self.vol_day: Dict[int, np.ndarray] = {}
        self._t2: Dict[int, np.ndarray] = {}

    def _dims(self) -> Dict[str, int]:
        """The axis lengths the :attr:`BANKS` shapes are declared over."""
        nc, nr = len(self.countries), len(self.resolvers)
        return {
            "country": nc,
            # generator services plus slot 0 for unattributed flows
            "service": len(self.services) + 1,
            "l7": len(L7_ORDER),
            "resolver": nr,
            "classifier": len(self.classifier_services),
            "country_hour": nc * 24,
            "category_country": len(FIG7_CATEGORIES) * nc,
            "plan_country": len(PLAN_ORDER) * nc,
            "resolver_rows": max(nr, 1),
        }

    @property
    def _t2_vec_len(self) -> int:
        return len(self.resolvers) + 2 * len(self._t2_groups)

    @classmethod
    def for_frame(cls, frame: FlowFrame) -> "StreamRollup":
        """An empty rollup matching ``frame``'s categorical pools."""
        return cls(frame.countries, frame.services, frame.resolvers)

    def _same_pools(self, other) -> bool:
        """``other`` (a frame or a rollup) has this rollup's pools."""
        return (other.countries, other.services, other.resolvers) == (
            self.countries,
            self.services,
            self.resolvers,
        )

    # -- update --------------------------------------------------------

    def update(self, frame: Optional[FlowFrame]) -> "StreamRollup":
        """Fold one capture window (or any day-aligned chunk) in.

        The chunk must contain *all* flows of every (customer, day)
        pair it touches — true for whole windows and for single-shard
        windows, since a customer lives in exactly one shard.
        """
        self.windows_folded += 1
        if frame is None or len(frame) == 0:
            return self
        if not self._same_pools(frame):
            raise ValueError("frame pools do not match this rollup")
        if frame.customer_id.max() >= 1_000_000:
            raise ValueError("rollup keys assume customer ids below 1e6")
        nc = len(self.countries)
        c = frame.country_idx.astype(np.int64)
        hour = frame.hour_utc.astype(np.int64) % 24
        vol = frame.bytes_total()
        self.flows_total += len(frame)
        self.bytes_up_c += np.bincount(c, weights=frame.bytes_up, minlength=nc)
        self.bytes_down_c += np.bincount(c, weights=frame.bytes_down, minlength=nc)
        self.flows_c += np.bincount(c, minlength=nc).astype(np.int64)

        nl = len(L7_ORDER)
        flat_l7 = (c * nl + frame.l7_idx.astype(np.int64)) * 24 + hour
        self.vol_clh += np.bincount(
            flat_l7, weights=vol, minlength=nc * nl * 24
        ).reshape(nc, nl, 24)

        ns1 = len(self.services) + 1
        svc = frame.service_true_idx.astype(np.int64) + 1
        flat_svc = (c * ns1 + svc) * 24 + hour
        self.vol_csh += np.bincount(
            flat_svc, weights=vol, minlength=nc * ns1 * 24
        ).reshape(nc, ns1, 24)

        for day in np.unique(frame.day):
            mask = frame.day == day
            matrix = self.vol_day.setdefault(
                int(day), np.zeros((nc, 24), dtype=np.float64)
            )
            matrix += np.bincount(
                c[mask] * 24 + hour[mask], weights=vol[mask], minlength=nc * 24
            ).reshape(nc, 24)

        # distinct (country, customer) pairs in one pass; customer ids
        # are below 1e6 (checked above)
        pairs = np.unique(c * 1_000_000 + frame.customer_id)
        countries, first = np.unique(pairs // 1_000_000, return_index=True)
        for idx, ids in zip(countries.tolist(), np.split(pairs % 1_000_000, first[1:])):
            self._customers[idx].update(ids.tolist())

        self._update_customer_days(frame, c)
        self._update_rtt(frame, c, vol)
        self._update_services(frame, c, vol)
        self._update_dns(frame, c)
        self._update_qoe(frame)
        return self

    def _update_customer_days(self, frame: FlowFrame, c: np.ndarray) -> None:
        # One sort pass: group by (customer, day), each group belongs
        # to one country (a customer has one country).
        combined = frame.customer_id.astype(np.int64) * 100_000 + frame.day.astype(
            np.int64
        )
        order = np.argsort(combined, kind="stable")
        combined = combined[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(combined)) + 1))
        flows = np.diff(np.concatenate((starts, [len(combined)]))).astype(np.float64)
        down = np.add.reduceat(frame.bytes_down[order], starts)
        up = np.add.reduceat(frame.bytes_up[order], starts)
        group_country = c[order][starts]

        nc = len(self.countries)
        self.cd_total_c += np.bincount(group_country, minlength=nc).astype(np.int64)
        idle = flows < ACTIVE_CUSTOMER_FLOW_THRESHOLD
        self.cd_idle_c += np.bincount(
            group_country[idle], minlength=nc
        ).astype(np.int64)
        self.h5_flows.update(group_country, flows)
        active = ~idle
        self.h5_down.update(group_country[active], down[active])
        self.h5_up.update(group_country[active], up[active])

    def _update_rtt(self, frame: FlowFrame, c: np.ndarray, vol: np.ndarray) -> None:
        # Banks over the same values and edges share one binning: the
        # Figure 8 banks bin satellite RTTs, the Figure 9 banks ground
        # RTTs, the Figure 11 banks bulk throughput.
        local_hour = local_hour_of(frame)
        has_sat = np.isfinite(frame.sat_rtt_ms)
        sat = frame.sat_rtt_ms[has_sat].astype(np.float64)
        sat_c = c[has_sat]
        sat_hour = local_hour[has_sat]
        sat_bins = self.h8_hour.bin(sat)
        night = (sat_hour >= NIGHT_HOURS[0]) & (sat_hour < NIGHT_HOURS[1])
        peak = (sat_hour >= PEAK_HOURS[0]) & (sat_hour < PEAK_HOURS[1])
        self.h8_night.add(sat_c[night], sat_bins[night])
        self.h8_peak.add(sat_c[peak], sat_bins[peak])
        self.h8_hour.add(sat_c * 24 + sat_hour.astype(np.int64) % 24, sat_bins)
        either = night | peak
        if either.any():
            np.minimum.at(self.sat_min_c, sat_c[either], sat[either])

        tcp = np.isin(frame.l7_idx, [L7_ORDER.index(p) for p in _TCP_L7])
        ground_ok = tcp & np.isfinite(frame.ground_rtt_ms)
        rtt_bins = self.h9_cnt.bin(frame.ground_rtt_ms[ground_ok].astype(np.float64))
        rows = c[ground_ok]
        self.h9_cnt.add(rows, rtt_bins)
        self.h9_vol.add(rows, rtt_bins, weights=vol[ground_ok])

        # Figure 11: bulk-download throughput (Mb/s), overall plus the
        # same night/peak local-hour periods as Figure 8a.
        with np.errstate(divide="ignore", invalid="ignore"):
            mbps = frame.bytes_down * 8.0 / frame.duration_s / 1e6
        bulk = (frame.bytes_down >= BULK_FLOW_MIN_BYTES) & np.isfinite(mbps)
        bulk_c = c[bulk]
        bulk_hour = local_hour[bulk]
        tput_bins = self.h11_all.bin(mbps[bulk])
        night = (bulk_hour >= NIGHT_HOURS[0]) & (bulk_hour < NIGHT_HOURS[1])
        peak = (bulk_hour >= PEAK_HOURS[0]) & (bulk_hour < PEAK_HOURS[1])
        self.h11_all.add(bulk_c, tput_bins)
        self.h11_night.add(bulk_c[night], tput_bins[night])
        self.h11_peak.add(bulk_c[peak], tput_bins[peak])

    def _update_services(self, frame: FlowFrame, c: np.ndarray, vol: np.ndarray) -> None:
        """Figures 6/7: classifier-labelled customer-day aggregates.

        Labels come from the Table 3 regexes over the window's domain
        pool (memoized — the pool is identical across windows), *not*
        from the generator's ground truth, mirroring the frame paths.
        """
        pool_labels, names = self._classifier.classify_pool(frame.domains)
        if names != self.classifier_services:
            raise ValueError("classifier rules changed under a live rollup")
        labels = np.full(len(frame), -1, dtype=np.int16)
        has_domain = frame.domain_idx >= 0
        labels[has_domain] = pool_labels[frame.domain_idx[has_domain]]
        matched = labels >= 0
        if not matched.any():
            return
        nc = len(self.countries)
        lab = labels[matched].astype(np.int64)
        cust = frame.customer_id[matched].astype(np.int64)
        day = frame.day[matched].astype(np.int64)
        cc = c[matched]

        # Figure 6: distinct customers per (country, service, day),
        # summed over days — group by (service, customer, day).
        combined = (lab * 1_000_000 + cust) * 100_000 + day
        order = np.argsort(combined, kind="stable")
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(combined[order])) + 1)
        )
        g_country = cc[order][starts]
        g_svc = lab[order][starts]
        n_svc = len(self.classifier_services)
        self.svc_cust_days += np.bincount(
            g_country.astype(np.int64) * n_svc + g_svc, minlength=nc * n_svc
        ).reshape(nc, n_svc).astype(np.int64)

        # Figure 7: customer-day volume per category.
        cat_of_label = np.full(n_svc, -1, dtype=np.int64)
        for i, rule in enumerate(self._classifier.rules):
            if rule.category in FIG7_CATEGORIES:
                cat_of_label[i] = FIG7_CATEGORIES.index(rule.category)
        cat = cat_of_label[lab]
        has_cat = cat >= 0
        if not has_cat.any():
            return
        combined = ((cat[has_cat] * 1_000_000 + cust[has_cat])) * 100_000 + day[has_cat]
        values = vol[matched][has_cat]
        order = np.argsort(combined, kind="stable")
        combined = combined[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(combined)) + 1))
        sums = np.add.reduceat(values[order], starts)
        g_country = cc[has_cat][order][starts].astype(np.int64)
        g_cat = cat[has_cat][order][starts]
        self.h7_volume.update(g_cat * nc + g_country, sums)


    def _update_qoe(self, frame: FlowFrame) -> None:
        """Figure 12: per-(country, plan) video-session QoE."""
        rows, rebuffer, level, sums = fold_video_sessions(frame)
        self.qoe_sessions += sums[0]
        self.qoe_rebuffer_sum += sums[1]
        self.qoe_level_sum += sums[2]
        self.qoe_switch_sum += sums[3]
        self.h12_rebuf.update(rows, rebuffer)
        self.h12_level.update(rows, level)

    def _update_dns(self, frame: FlowFrame, c: np.ndarray) -> None:
        """Figure 10 counters/histograms and the Table 2 customer bank."""
        nr = len(self.resolvers)
        if nr == 0:
            return
        nc = len(self.countries)
        dns = frame.resolver_idx >= 0
        res = frame.resolver_idx.astype(np.int64)
        self.dns_cr += np.bincount(
            c[dns] * nr + res[dns], minlength=nc * nr
        ).reshape(nc, nr).astype(np.int64)
        resp_ok = dns & np.isfinite(frame.dns_response_ms)
        self.h10_resp.update(res[resp_ok], frame.dns_response_ms[resp_ok])

        # Table 2 bank: group flows by customer, then accumulate that
        # customer's resolver counts and per-domain-group RTT sums.
        ng = len(self._t2_groups)
        flow_group = table2_group_of_flows(frame)
        rtt_ok = np.isfinite(frame.ground_rtt_ms) & (flow_group >= 0)

        relevant = dns | rtt_ok
        if not relevant.any():
            return
        cust = frame.customer_id[relevant].astype(np.int64)
        r_rel = res[relevant]
        g_rel = flow_group[relevant].astype(np.int64)
        rtt_rel = frame.ground_rtt_ms[relevant].astype(np.float64)
        dns_rel = dns[relevant]
        rtt_rel_ok = rtt_ok[relevant]
        order = np.argsort(cust, kind="stable")
        cust = cust[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(cust)) + 1))
        ends = np.concatenate((starts[1:], [len(cust)]))
        for lo, hi in zip(starts, ends):
            seg = order[lo:hi]
            vec = self._t2.setdefault(
                int(cust[lo]), np.zeros(self._t2_vec_len, dtype=np.float64)
            )
            seg_dns = seg[dns_rel[order[lo:hi]]]
            if len(seg_dns):
                vec[:nr] += np.bincount(r_rel[seg_dns], minlength=nr)
            seg_rtt = seg[rtt_rel_ok[order[lo:hi]]]
            if len(seg_rtt):
                groups = g_rel[seg_rtt]
                vec[nr : nr + ng] += np.bincount(
                    groups, weights=rtt_rel[seg_rtt], minlength=ng
                )
                vec[nr + ng :] += np.bincount(groups, minlength=ng)


    # -- merge ---------------------------------------------------------

    def merge(self, other: "StreamRollup") -> "StreamRollup":
        """Fold another rollup in (associative, pools must match)."""
        if not self._same_pools(other):
            raise ValueError("cannot merge rollups with different pools")
        self.flows_total += other.flows_total
        self.windows_folded += other.windows_folded
        for bank in self.BANKS:
            bank.fold(getattr(self, bank.name), getattr(other, bank.name))
        for mine, theirs in zip(self._customers, other._customers):
            mine |= theirs
        for day, matrix in other.vol_day.items():
            if day in self.vol_day:
                self.vol_day[day] += matrix
            else:
                self.vol_day[day] = matrix.copy()
        for cid, vec in other._t2.items():
            mine = self._t2.setdefault(
                cid, np.zeros(self._t2_vec_len, dtype=np.float64)
            )
            mine += vec
        return self

    def copy(self) -> "StreamRollup":
        """A deep, digest-identical copy — the serve snapshot primitive.

        Every array is copied explicitly (no merge-into-empty, whose
        float adds could flip signed-zero bits, and no save/load round
        trip, which would pay npz compression per window), so
        ``copy().state_digest() == state_digest()`` holds bit for bit
        and the copy never aliases live mutable state.
        """
        other = StreamRollup(self.countries, self.services, self.resolvers)
        other.flows_total = self.flows_total
        other.windows_folded = self.windows_folded
        for bank in self.BANKS:
            setattr(other, bank.name, getattr(self, bank.name).copy())
        other._customers = [set(s) for s in self._customers]
        other.vol_day = {day: matrix.copy() for day, matrix in self.vol_day.items()}
        other._t2 = {cid: vec.copy() for cid, vec in self._t2.items()}
        return other

    # -- queries used by the from_rollup report paths ------------------

    def country_row(self, country: str) -> int:
        return self.countries.index(country)

    def volume_c(self) -> np.ndarray:
        """Total bytes per country."""
        return self.bytes_up_c + self.bytes_down_c

    def customers_c(self) -> np.ndarray:
        return np.array([len(s) for s in self._customers], dtype=np.int64)

    def hourly_day_median(self, country: str) -> np.ndarray:
        """24-vector: per-hour volume, median across days, normalized.

        The streaming stand-in for the frame path's winsorized robust
        curve (Figure 4): the day-median damps single binge days the
        same way, without needing per-flow quantiles.
        """
        row = self.country_row(country)
        per_day = np.array(
            [matrix[row] for matrix in self.vol_day.values()], dtype=np.float64
        )
        if len(per_day) == 0:
            return np.zeros(24)
        totals = np.median(per_day, axis=0)
        peak = totals.max()
        return totals / peak if peak > 0 else totals

    def n_days(self) -> int:
        """Distinct capture days folded so far (days with any flow)."""
        return len(self.vol_day)

    def volume_by_l7(self) -> np.ndarray:
        """Total bytes per l7 protocol (Table 1) — exact."""
        return self.vol_clh.sum(axis=(0, 2))

    def service_row(self, service: str) -> int:
        return self.classifier_services.index(service)

    def fig7_row(self, category: ServiceCategory, country: str) -> int:
        """Row of :attr:`h7_volume` for one (category, country) cell."""
        return FIG7_CATEGORIES.index(category) * len(self.countries) + self.country_row(
            country
        )

    def customers_of(self, country: str) -> List[int]:
        """Distinct customer ids seen in ``country`` (sorted)."""
        return sorted(self._customers[self.country_row(country)])

    def t2_bank(self, customer: int) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """One customer's Table 2 bank: (DNS flows per resolver,
        ground-RTT sum per domain group, sample count per group)."""
        vec = self._t2.get(int(customer))
        if vec is None:
            return None
        nr, ng = len(self.resolvers), len(self._t2_groups)
        return vec[:nr], vec[nr : nr + ng], vec[nr + ng :]

    @property
    def t2_groups(self) -> List[str]:
        """Table 2 domain-group names, in bank order."""
        return list(self._t2_groups)

    # -- persistence ---------------------------------------------------

    def _meta(self) -> Dict[str, object]:
        """Schema and pools: the saved ``meta`` and the digest prefix."""
        return {
            "schema": ROLLUP_SCHEMA,
            "countries": self.countries,
            "services": self.services,
            "resolvers": self.resolvers,
        }

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        arrays: Dict[str, np.ndarray] = {
            "counters": np.array(
                [self.flows_total, self.windows_folded], dtype=np.int64
            ),
        }
        for bank in self.BANKS:
            arrays.update(bank.arrays(getattr(self, bank.name)))
        ids = [np.array(sorted(s), dtype=np.int64) for s in self._customers]
        arrays["cust_ids"] = (
            np.concatenate(ids) if ids else np.zeros(0, dtype=np.int64)
        )
        arrays["cust_offsets"] = np.cumsum([0] + [len(x) for x in ids]).astype(
            np.int64
        )
        days = sorted(self.vol_day)
        arrays["day_keys"] = np.array(days, dtype=np.int64)
        arrays["day_vol"] = (
            np.stack([self.vol_day[d] for d in days])
            if days
            else np.zeros((0, len(self.countries), 24), dtype=np.float64)
        )
        t2_ids = np.array(sorted(self._t2), dtype=np.int64)
        arrays["t2_ids"] = t2_ids
        arrays["t2_stats"] = (
            np.stack([self._t2[int(cid)] for cid in t2_ids])
            if len(t2_ids)
            else np.zeros((0, self._t2_vec_len), dtype=np.float64)
        )
        return arrays

    def state_digest(self) -> str:
        """SHA-256 over the canonical state — the bit-identity oracle.

        Two rollups with equal digests folded the same flows (up to
        hash collision); the checkpoint stores it, and the stream tests
        compare one-shot vs killed-and-resumed captures with it.
        """
        digest = hashlib.sha256()
        digest.update(json.dumps(self._meta(), sort_keys=True).encode())
        for name, array in sorted(self._state_arrays().items()):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(array).tobytes())
        return digest.hexdigest()

    def save(self, path, injector: Optional[FaultInjector] = None) -> None:
        """Atomically persist the rollup state to an ``.npz``."""
        meta = json.dumps(self._meta())
        arrays = self._state_arrays()
        atomic_write_bytes(
            os.fspath(path),
            lambda h: np.savez(h, meta=np.array(meta), **arrays),
            injector=injector,
            op="rollup.save",
        )

    @classmethod
    def load(cls, path) -> "StreamRollup":
        """Load a state written by :meth:`save`.

        Damage (truncation, flipped bits, another schema) raises
        :class:`CaptureError`, never a raw npz/zip error.
        """
        try:
            return cls._load(path)
        except CaptureError:
            raise
        except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile, zlib.error) as exc:
            if isinstance(exc, FileNotFoundError):
                raise
            raise CaptureError(f"corrupt rollup state {path}: {exc}") from exc

    @classmethod
    def _load(cls, path) -> "StreamRollup":
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if meta.get("schema") != ROLLUP_SCHEMA:
                raise CaptureError(
                    f"corrupt rollup state {path}: schema "
                    f"{meta.get('schema')} != {ROLLUP_SCHEMA}"
                )
            rollup = cls(meta["countries"], meta["services"], meta["resolvers"])
            counters = data["counters"]
            rollup.flows_total = int(counters[0])
            rollup.windows_folded = int(counters[1])
            dims = rollup._dims()
            for bank in cls.BANKS:
                setattr(rollup, bank.name, bank.restore(data, dims))
            ids = data["cust_ids"]
            offsets = data["cust_offsets"]
            rollup._customers = [
                set(int(x) for x in ids[offsets[i] : offsets[i + 1]])
                for i in range(len(rollup.countries))
            ]
            day_vol = data["day_vol"]
            rollup.vol_day = {
                int(day): day_vol[i].copy() for i, day in enumerate(data["day_keys"])
            }
            t2_stats = data["t2_stats"]
            rollup._t2 = {
                int(cid): t2_stats[i].copy() for i, cid in enumerate(data["t2_ids"])
            }
        return rollup
