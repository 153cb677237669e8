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
The banks marked ``ordered`` and ``vol_day`` sum floats over flows of
many customers, so their bits depend on flow order: the fleet merge
folds them again from windows (:meth:`StreamRollup.fold_ordered`)
instead of merging them.

``update`` must see *whole* windows whose boundaries fall on day
edges (the producer guarantees this): the customer-day sketches
(Figures 5/6/7) are only exact when no customer-day straddles two
updates.
"""

from __future__ import annotations

import functools
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
    local_hour_offsets,
    table2_group_of_domains,
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
#: The l7 indices of TCP, whose handshake RTT Figure 9 counts.
_TCP_IDX = [L7_ORDER.index(p) for p in _TCP_L7]
#: The Figure 8a/11 periods as slices of whole local hours: with integer
#: bounds, ``lo <= hour < hi`` holds for a float hour iff for its floor.
_NIGHT = slice(int(NIGHT_HOURS[0]), int(NIGHT_HOURS[1]))
_PEAK = slice(int(PEAK_HOURS[0]), int(PEAK_HOURS[1]))
assert (_NIGHT.start, _NIGHT.stop, _PEAK.start, _PEAK.stop) == NIGHT_HOURS + PEAK_HOURS
_IN_PERIOD = np.zeros(25, dtype=bool)
_IN_PERIOD[_NIGHT] = _IN_PERIOD[_PEAK] = True


def _decade_edges(lo_exp: int, hi_exp: int, per_decade: int = 12) -> np.ndarray:
    """Log-spaced bin edges with exact values at every decade."""
    return 10.0 ** (
        np.arange(0, (hi_exp - lo_exp) * per_decade + 1) / per_decade + lo_exp
    )


#: How far below its exact position a value's bin guess is pushed: far
#: above the float error of the guess (~1e-13 bins) and of the edges
#: (at most a tenth of it, checked), far below one bin.
_GUESS_SLACK = 1e-9


@functools.lru_cache(maxsize=None)
def _bin_guess(edge_bytes: bytes) -> Optional[Tuple[bool, float, float]]:
    """``(log, scale, shift)`` if the float64 edges are evenly spaced
    on a linear or a log10 axis, else None. For ``x`` clipped to the
    edges, ``int(axis(x) * scale + shift)`` is its bin plus one, or its
    bin when ``x`` lies within the slack above a bin's lower edge."""
    edges = np.frombuffer(edge_bytes)
    n_bins = len(edges) - 1
    for log in (False, True):
        if log and edges[0] <= 0:
            continue
        axis = np.log10(edges) if log else edges
        scale = n_bins / (axis[-1] - axis[0])
        drift = (axis - axis[0]) * scale - np.arange(n_bins + 1)
        if np.abs(drift).max() <= _GUESS_SLACK / 10:
            return log, scale, 1.0 - _GUESS_SLACK - axis[0] * scale
    return None


def _tally(
    rows: np.ndarray,
    bin_idx: np.ndarray,
    n_rows: int,
    n_bins: int,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``(n_rows, n_bins + 2)`` totals per (row, bin), underflow in the
    first column and overflow in the last, from one ``bincount``: each
    cell adds its weights in input order starting from 0.0, and counts
    exactly when unweighted."""
    cells = np.asarray(rows, dtype=np.intp) * (n_bins + 2)
    cells += bin_idx
    cells += 1
    return np.bincount(cells, weights, minlength=n_rows * (n_bins + 2)).reshape(
        n_rows, n_bins + 2
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
        self._guess = _bin_guess(self.edges.tobytes())
        if self._guess is None:
            raise ValueError("edges must be evenly spaced on a linear or log10 axis")
        self._bounds = np.append(self.edges, np.inf)

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
        n_bins = self.counts.shape[1]
        self.add_table(_tally(rows, self.bin(values), self.n_rows, n_bins, weights))

    def bin(self, values: np.ndarray) -> np.ndarray:
        """Bin index of each finite float64 value: -1 below the first
        edge, ``n_bins`` at or above the last — exactly
        ``searchsorted(edges, values, side="right") - 1``. Banks with
        equal edges share one binning of the same values.

        The arithmetic guess is the bin or the one below it; one
        comparison against the stored lower edge of the bin above
        settles which."""
        log, scale, shift = self._guess
        guess = np.clip(values, self.edges[0], self.edges[-1], dtype=np.float64)
        if log:
            np.log10(guess, out=guess)
        guess *= scale
        guess += shift
        idx = guess.astype(np.intp)  # bin + 1, or bin near a lower edge
        del guess
        above = values >= self._bounds[idx]
        idx -= 1
        idx += above
        return idx

    def add_table(self, table: np.ndarray) -> None:
        """Fold a ``(n_rows, n_bins + 2)`` table from :func:`_tally` of
        values binned by :meth:`bin` on these edges."""
        self.counts += table[:, 1:-1]
        self.under += table[:, 0]
        self.over += table[:, -1]

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
        other._guess, other._bounds = self._guess, self._bounds
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


def _hourly(
    major: np.ndarray,
    shape: Tuple[int, int],
    minor: np.ndarray,
    hour: np.ndarray,
    vol: np.ndarray,
) -> np.ndarray:
    """Volume per (major, minor, hour) cell, as a ``(*shape, 24)`` array."""
    flat = major * shape[1]
    flat += minor
    flat *= 24
    flat += hour
    size = shape[0] * shape[1] * 24
    return np.bincount(flat, vol, minlength=size).reshape(*shape, 24)


@dataclass(frozen=True, eq=False)
class _PoolTables:
    """Lookups the fold gathers through, built once per domain pool."""

    domains: List[str]
    label: np.ndarray  # domain -> classifier service, -1 unmatched
    t2_group: np.ndarray  # domain -> Table 2 domain group, -1 none
    category: np.ndarray  # classifier service -> Figure 7 category, -1
    hour_offset: np.ndarray  # country -> local-hour shift


_Dims = Mapping[str, int]
_State = Mapping[str, np.ndarray]


def _sha256(arrays: _State, prefix: bytes = b"") -> str:
    """SHA-256 over ``prefix``, then each array's name and bytes by name."""
    digest = hashlib.sha256(prefix)
    for name, array in sorted(arrays.items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


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
    ``fill`` is its identity, the value of an empty bank. ``ordered``
    marks a float sum over flows of different customers, whose bits
    depend on the flow order (:meth:`StreamRollup.fold_ordered`).
    """

    name: str
    dtype: type
    axes: Tuple[Union[str, int], ...]
    merge: np.ufunc = np.add
    fill: float = 0.0
    ordered: bool = False

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
    ``{name}_counts``, ``{name}_under`` and ``{name}_over``; ``ordered``
    as for :class:`ArrayBank`."""

    name: str
    edges: np.ndarray
    rows: str
    ordered: bool = False

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
    #: here, its fold code in :meth:`update` (:meth:`fold_ordered` if
    #: ``ordered``) and a ``ROLLUP_SCHEMA`` bump. A flattened row axis
    #: puts the group first (row = group * n_countries + country),
    #: except ``country_hour`` (row = country * 24 + local hour).
    BANKS: Tuple[Union[ArrayBank, HistBank], ...] = (
        # Figure 2: per-country counters
        ArrayBank("bytes_up_c", np.float64, ("country",), ordered=True),
        ArrayBank("bytes_down_c", np.float64, ("country",), ordered=True),
        ArrayBank("flows_c", np.int64, ("country",)),
        # Figure 3: (country, l7, hour) volume
        ArrayBank("vol_clh", np.float64, ("country", "l7", 24), ordered=True),
        # Figures 6/7-style: (country, service, hour) volume
        ArrayBank("vol_csh", np.float64, ("country", "service", 24), ordered=True),
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
        HistBank("h9_vol", GROUND_EDGES, "country", ordered=True),
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
        # windows: each window folds its sessions whole.
        ArrayBank("qoe_sessions", np.int64, ("plan_country",)),
        ArrayBank("qoe_rebuffer_sum", np.float64, ("plan_country",), ordered=True),
        ArrayBank("qoe_level_sum", np.float64, ("plan_country",), ordered=True),
        ArrayBank("qoe_switch_sum", np.float64, ("plan_country",), ordered=True),
        HistBank("h12_rebuf", QOE_REBUF_EDGES, "plan_country"),
        HistBank("h12_level", QOE_LEVEL_EDGES, "plan_country"),
    )
    #: The columns :meth:`fold_ordered` reads, and the session columns
    #: it reads too unless the capture has no video session.
    ORDERED_COLUMNS = ("day", "hour_utc", "country_idx", "l7_idx", "service_true_idx",
                       "bytes_up", "bytes_down", "ground_rtt_ms")
    SESSION_COLUMNS = ("session_id", "plan_down_mbps", "qoe_rebuffer", "qoe_level",
                       "qoe_switches")

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
        self._tables: Optional[_PoolTables] = None

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
        windows, since a customer lives in exactly one shard. Nothing
        is sorted: every grouping is a ``bincount`` or a mark over dense
        (customer, day) cells; DESIGN §8 states the fold contract.
        """
        self.windows_folded += 1
        if frame is None or len(frame) == 0:
            return self
        if not self._same_pools(frame):
            raise ValueError("frame pools do not match this rollup")
        cust = frame.customer_id
        if cust.min() < 0 or cust.max() >= 1_000_000:
            raise ValueError("rollup keys assume customer ids in [0, 1e6)")
        tables = self._pool_tables(frame.domains)
        nc = len(self.countries)
        c, vol, day = self.fold_ordered(frame)
        self.flows_total += len(frame)
        self.flows_c += np.bincount(c, minlength=nc)

        # Dense cells: each customer's rank among the window's ids (a
        # presence table, ids < 1e6) and its (customer, day) cell.
        cust = cust.astype(np.intp)
        present = np.zeros(int(cust.max()) + 1, dtype=bool)
        present[cust] = True
        ids = np.flatnonzero(present)
        cell = (np.cumsum(present, dtype=np.intp) - 1)[cust]  # the rank
        del present, cust
        cust_country = np.zeros(len(ids), dtype=np.intp)
        cust_country[cell] = c
        if not np.array_equal(cust_country[cell], c):
            raise ValueError("rollup keys assume one country per customer")
        for k in np.unique(cust_country).tolist():
            self._customers[k].update(ids[cust_country == k].tolist())
        n_days = int(day.max()) + 1
        cell *= n_days
        cell += day
        del day
        cell_flows = np.bincount(cell, minlength=len(ids) * n_days)
        cell_country = np.repeat(cust_country, n_days)

        domain = frame.domain_idx.astype(np.intp)
        label, group = tables.label[domain], tables.t2_group[domain]
        del domain
        self._fold_customer_days(frame, cell, cell_flows, cell_country)
        self._fold_services(label, tables.category, cell, cell_country, vol)
        del label, cell_flows
        self._fold_dns(frame, group, c, cell, n_days, ids)
        del cell, group
        self._fold_rtt(frame, tables.hour_offset, c)
        return self

    def fold_ordered(self, frame) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fold a non-empty window into the ``ordered`` banks and
        ``vol_day``, and into the Figure 9 counts and Figure 12 bank,
        which share their inputs; return the flows' intp country,
        volume and day since the window's first.

        The fleet merge passes a projected read: any object with
        ``countries`` and :attr:`ORDERED_COLUMNS` as attributes, and
        Figure 12 is skipped without ``session_id``.
        """
        # intp: numpy gathers and counts through anything narrower by
        # converting it first, on every call.
        c = frame.country_idx.astype(np.intp)
        hour = frame.hour_utc.astype(np.intp)
        np.remainder(hour, 24, out=hour, where=(hour < 0) | (hour >= 24))
        day0 = int(frame.day.min())
        day = frame.day.astype(np.intp)
        day -= day0
        vol = frame.bytes_up + frame.bytes_down
        nc, nl, ns1 = len(self.countries), len(L7_ORDER), len(self.services) + 1
        self.bytes_up_c += np.bincount(c, weights=frame.bytes_up, minlength=nc)
        self.bytes_down_c += np.bincount(c, weights=frame.bytes_down, minlength=nc)
        self.vol_clh += _hourly(c, (nc, nl), frame.l7_idx, hour, vol)
        self.vol_csh += _hourly(c, (nc, ns1), frame.service_true_idx + 1, hour, vol)

        n_days = int(day.max()) + 1
        by_day = _hourly(day, (n_days, nc), c, hour, vol)
        # the first and the last day have flows; only a day between may not
        used = np.bincount(day, minlength=n_days) if n_days > 2 else np.ones(n_days)
        for d in np.flatnonzero(used).tolist():
            matrix = self.vol_day.setdefault(day0 + d, np.zeros((nc, 24)))
            matrix += by_day[d]
        del hour, by_day

        # Figure 9: TCP handshake ground RTT, count- and volume-weighted
        ground = frame.ground_rtt_ms
        tcp = np.logical_or.reduce([frame.l7_idx == i for i in _TCP_IDX])
        ok = np.flatnonzero(tcp & np.isfinite(ground))
        rows, rtt_bins = c[ok], self.h9_cnt.bin(ground[ok])
        n_bins = len(self.GROUND_EDGES) - 1
        self.h9_cnt.add_table(_tally(rows, rtt_bins, nc, n_bins))
        self.h9_vol.add_table(_tally(rows, rtt_bins, nc, n_bins, vol[ok]))
        del tcp, ok, rows, rtt_bins
        if hasattr(frame, "session_id"):
            self._update_qoe(frame)
        return c, vol, day

    def take_ordered(self, other: "StreamRollup") -> None:
        """Adopt ``other``'s ``ordered`` banks and ``vol_day``, uncopied."""
        for bank in self.BANKS:
            if bank.ordered:
                setattr(self, bank.name, getattr(other, bank.name))
        self.vol_day = other.vol_day

    def _pool_tables(self, domains: List[str]) -> "_PoolTables":
        """The fold's lookup tables, rebuilt only when the domain pool
        changes (it is the same for every window of a capture)."""
        if self._tables is None or self._tables.domains != domains:
            labels, names = self._classifier.classify_pool(domains)
            if names != self.classifier_services:
                raise ValueError("classifier rules changed under a live rollup")
            fig7 = [r.category for r in self._classifier.rules]
            self._tables = _PoolTables(
                list(domains),
                # the trailing -1 is what domain index -1 (no domain) reads
                np.append(labels, np.int16(-1)),
                np.append(table2_group_of_domains(domains), np.int16(-1)),
                np.array([FIG7_CATEGORIES.index(k) if k in FIG7_CATEGORIES else -1
                          for k in fig7]),
                local_hour_offsets(self.countries),
            )
        return self._tables

    def _fold_customer_days(
        self,
        frame: FlowFrame,
        cell: np.ndarray,
        cell_flows: np.ndarray,
        cell_country: np.ndarray,
    ) -> None:
        """Figure 5: flow and byte totals per (customer, day) cell."""
        nc, n_cells = len(self.countries), len(cell_country)
        down = np.bincount(cell, frame.bytes_down, minlength=n_cells)
        up = np.bincount(cell, frame.bytes_up, minlength=n_cells)
        seen = np.flatnonzero(cell_flows)
        flows, rows = cell_flows[seen], cell_country[seen]
        self.cd_total_c += np.bincount(rows, minlength=nc)
        idle = flows < ACTIVE_CUSTOMER_FLOW_THRESHOLD
        self.cd_idle_c += np.bincount(rows[idle], minlength=nc)
        self.h5_flows.update(rows, flows)
        active = seen[~idle]
        self.h5_down.update(cell_country[active], down[active])
        self.h5_up.update(cell_country[active], up[active])

    def _fold_rtt(self, frame: FlowFrame, hour_offset: np.ndarray, c: np.ndarray) -> None:
        """Figures 8 and 11. Banks over the same values and edges
        share one binning, and the all, night, peak and per-hour banks
        are sums over one count table per (country, local hour, bin)."""
        nc = len(self.countries)
        local = frame.hour_utc.astype(np.float64)  # local_hour_of, in place
        local += hour_offset[c]
        np.remainder(local, 24.0, out=local, where=(local < 0) | (local >= 24))
        # Row country * 25 + hour: % 24.0 rounds a tiny negative sum up
        # to hour 24, which no period holds and h8_hour files as hour 0.
        hour_row = local.astype(np.intp)
        del local
        hour_row += c * 25

        sat = frame.sat_rtt_ms
        has = np.flatnonzero(np.isfinite(sat))
        sat = sat[has].astype(np.float64)
        sat_row = hour_row[has]
        sat_bins = self.h8_hour.bin(sat)
        table = _tally(sat_row, sat_bins, nc * 25, len(self.SAT_EDGES) - 1)
        table = table.reshape(nc, 25, -1)
        self.h8_night.add_table(table[:, _NIGHT].sum(axis=1))
        self.h8_peak.add_table(table[:, _PEAK].sum(axis=1))
        inp = _IN_PERIOD[sat_row % 25]
        np.minimum.at(self.sat_min_c, sat_row[inp] // 25, sat[inp])
        table[:, 0] += table[:, 24]
        self.h8_hour.add_table(table[:, :24].reshape(nc * 24, -1))
        del has, sat, sat_row, sat_bins, inp

        # Figure 11: bulk-download throughput (Mb/s), overall plus the
        # same night/peak local-hour periods as Figure 8a.
        bulk = np.flatnonzero(frame.bytes_down >= BULK_FLOW_MIN_BYTES)
        with np.errstate(divide="ignore", invalid="ignore"):
            mbps = frame.bytes_down[bulk] * 8.0 / frame.duration_s[bulk] / 1e6
        ok = np.isfinite(mbps)
        tput_bins = self.h11_all.bin(mbps[ok])
        table = _tally(hour_row[bulk[ok]], tput_bins, nc * 25, len(self.TPUT_EDGES) - 1)
        table = table.reshape(nc, 25, -1)
        self.h11_all.add_table(table.sum(axis=1))
        self.h11_night.add_table(table[:, _NIGHT].sum(axis=1))
        self.h11_peak.add_table(table[:, _PEAK].sum(axis=1))

    def _fold_services(
        self,
        label: np.ndarray,
        category: np.ndarray,
        cell: np.ndarray,
        cell_country: np.ndarray,
        vol: np.ndarray,
    ) -> None:
        """Figures 6/7: classifier-labelled customer-day aggregates.

        ``label`` is each flow's service by the Table 3 regexes over the
        window's domain pool, *not* the generator's ground truth,
        mirroring the frame paths.
        """
        matched = np.flatnonzero(label >= 0)
        if len(matched) == 0:
            return
        nc, n_cells = len(self.countries), len(cell_country)
        n_svc = len(self.classifier_services)
        label, cell = label[matched], cell[matched]

        # Figure 6: distinct customers per (country, service, day),
        # summed over days — mark the (cell, service) pairs.
        seen = np.zeros(n_cells * n_svc, dtype=bool)
        seen[cell * n_svc + label] = True
        pairs = np.flatnonzero(seen)
        self.svc_cust_days += np.bincount(
            cell_country[pairs // n_svc] * n_svc + pairs % n_svc, minlength=nc * n_svc
        ).reshape(nc, n_svc)

        # Figure 7: customer-day volume per category.
        cat = category[label]
        has = np.flatnonzero(cat >= 0)
        key = cat[has] * n_cells + cell[has]
        n_keys = len(FIG7_CATEGORIES) * n_cells
        sums = np.bincount(key, vol[matched[has]], minlength=n_keys)
        seen = np.zeros(n_keys, dtype=bool)
        seen[key] = True
        groups = np.flatnonzero(seen)
        self.h7_volume.update(
            groups // n_cells * nc + cell_country[groups % n_cells], sums[groups]
        )

    def _update_qoe(self, frame: FlowFrame) -> None:
        """Figure 12: per-(country, plan) video-session QoE."""
        rows, rebuffer, level, sums = fold_video_sessions(frame)
        self.qoe_sessions += sums[0]
        self.qoe_rebuffer_sum += sums[1]
        self.qoe_level_sum += sums[2]
        self.qoe_switch_sum += sums[3]
        self.h12_rebuf.update(rows, rebuffer)
        self.h12_level.update(rows, level)

    def _fold_dns(
        self,
        frame: FlowFrame,
        group: np.ndarray,
        c: np.ndarray,
        cell: np.ndarray,
        n_days: int,
        ids: np.ndarray,
    ) -> None:
        """Figure 10 counters/histograms and the Table 2 customer bank;
        ``group`` is each flow's Table 2 domain group."""
        nr = len(self.resolvers)
        if nr == 0:
            return
        nc = len(self.countries)
        dns = np.flatnonzero(frame.resolver_idx >= 0)
        res = frame.resolver_idx[dns]
        self.dns_cr += np.bincount(c[dns] * nr + res, minlength=nc * nr).reshape(nc, nr)
        self.h10_resp.update(res, frame.dns_response_ms[dns])

        # Table 2 bank: per customer, DNS flows per resolver and the
        # ground-RTT sum and sample count per domain group.
        ng = len(self._t2_groups)
        rtt = frame.ground_rtt_ms
        ok = np.flatnonzero((group >= 0) & np.isfinite(rtt))
        if len(dns) == 0 and len(ok) == 0:
            return
        n_cust = len(ids)
        dns_rank, ok_rank = cell[dns] // n_days, cell[ok] // n_days
        key = ok_rank * ng + group[ok]
        rtt_sum = np.bincount(key, rtt[ok].astype(np.float64), minlength=n_cust * ng)
        bank = np.concatenate(
            (
                np.bincount(dns_rank * nr + res, minlength=n_cust * nr).reshape(-1, nr),
                rtt_sum.reshape(-1, ng),
                np.bincount(key, minlength=n_cust * ng).reshape(-1, ng),
            ),
            axis=1,
            dtype=np.float64,
        )
        touched = np.zeros(n_cust, dtype=bool)
        touched[dns_rank] = True
        touched[ok_rank] = True
        for cid, row in zip(ids[touched].tolist(), bank[touched]):
            vec = self._t2.setdefault(cid, np.zeros(self._t2_vec_len))
            vec += row

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

    def _state_groups(self) -> Dict[str, Dict[str, np.ndarray]]:
        """The saved arrays, grouped by the bank or keyed state that
        owns them (``counters``, ``_customers``, ``vol_day``, ``_t2``)."""
        counters = np.array([self.flows_total, self.windows_folded], dtype=np.int64)
        groups = {"counters": {"counters": counters}}
        groups.update((b.name, b.arrays(getattr(self, b.name))) for b in self.BANKS)
        ids = [sorted(s) for s in self._customers]
        days, t2_ids = sorted(self.vol_day), sorted(self._t2)
        stats = [self._t2[cid] for cid in t2_ids]
        groups["_customers"] = {
            "cust_ids": np.array([cid for x in ids for cid in x], dtype=np.int64),
            "cust_offsets": np.cumsum([0] + [len(x) for x in ids]).astype(np.int64),
        }
        groups["vol_day"] = {
            "day_keys": np.array(days, dtype=np.int64),
            "day_vol": np.array([self.vol_day[d] for d in days], dtype=np.float64)
            .reshape(len(days), len(self.countries), 24),
        }
        groups["_t2"] = {
            "t2_ids": np.array(t2_ids, dtype=np.int64),
            "t2_stats": np.array(stats, dtype=np.float64)
            .reshape(len(stats), self._t2_vec_len),
        }
        return groups

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        return {k: a for group in self._state_groups().values() for k, a in group.items()}

    def _meta_bytes(self) -> bytes:
        return json.dumps(self._meta(), sort_keys=True).encode()

    def state_digest(self) -> str:
        """SHA-256 over the canonical state — the bit-identity oracle.

        Two rollups with equal digests folded the same flows (up to
        hash collision); the checkpoint stores it, and the stream tests
        compare one-shot vs killed-and-resumed captures with it.
        """
        return _sha256(self._state_arrays(), self._meta_bytes())

    def bank_digests(self) -> Dict[str, str]:
        """SHA-256 per bank, per keyed state and of the ``meta`` digest
        prefix. Up to hash collision they all match between two rollups
        exactly when :meth:`state_digest` does; a mismatch names what
        diverged."""
        digests = {name: _sha256(group) for name, group in self._state_groups().items()}
        digests["meta"] = hashlib.sha256(self._meta_bytes()).hexdigest()
        return digests

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
