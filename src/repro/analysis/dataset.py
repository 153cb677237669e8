"""Columnar flow dataset.

The paper aggregates 34.4 billion flows with Spark; our laptop-scale
equivalent keeps flows in numpy columns with small string pools for
categorical fields (country, beam, service, domain, site, resolver).
Datasets in the hundreds of thousands to millions of rows filter and
group in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np


_POOL_FIELDS = (
    "countries",
    "beams",
    "services",
    "domains",
    "sites",
    "resolvers",
)

_ARRAY_FIELDS = (
    "ts_start",
    "day",
    "hour_utc",
    "customer_id",
    "country_idx",
    "subscriber_type",
    "beam_idx",
    "l7_idx",
    "service_true_idx",
    "domain_idx",
    "bytes_up",
    "bytes_down",
    "duration_s",
    "sat_rtt_ms",
    "ground_rtt_ms",
    "resolver_idx",
    "dns_response_ms",
    "site_idx",
    "plan_down_mbps",
    "session_id",
    "qoe_rebuffer",
    "qoe_level",
    "qoe_switches",
)


@dataclass
class FlowFrame:
    """A table of flows: numpy columns + categorical pools."""

    # categorical pools
    countries: List[str]
    beams: List[str]
    services: List[str]
    domains: List[str]
    sites: List[str]
    resolvers: List[str]

    # columns (all 1-D, equal length)
    ts_start: np.ndarray        # seconds since capture start (f8)
    day: np.ndarray             # integer day index (i4)
    hour_utc: np.ndarray        # fractional UTC hour (f4)
    customer_id: np.ndarray     # i4
    country_idx: np.ndarray     # i2, index into countries
    subscriber_type: np.ndarray  # i1 (SubscriberType)
    beam_idx: np.ndarray        # i2, index into beams
    l7_idx: np.ndarray          # i1, index into L7_ORDER
    service_true_idx: np.ndarray  # i2, generator ground truth (-1 none)
    domain_idx: np.ndarray      # i4, index into domains (-1 none)
    bytes_up: np.ndarray        # f8
    bytes_down: np.ndarray      # f8
    duration_s: np.ndarray      # f4
    sat_rtt_ms: np.ndarray      # f4 (nan when not measured)
    ground_rtt_ms: np.ndarray   # f4 (nan)
    resolver_idx: np.ndarray    # i2 (-1)
    dns_response_ms: np.ndarray  # f4 (nan)
    site_idx: np.ndarray        # i2 (-1)
    plan_down_mbps: np.ndarray  # f4
    # Session/QoE quartet (added after the seed schema): optional at
    # construction — omitted columns are sentinel-backfilled, so
    # pre-session construction sites and old captures keep working.
    session_id: Optional[np.ndarray] = None    # i8, video session id (-1)
    qoe_rebuffer: Optional[np.ndarray] = None  # f4, rebuffer ratio (nan)
    qoe_level: Optional[np.ndarray] = None     # f4, mean ladder level (nan)
    qoe_switches: Optional[np.ndarray] = None  # i2, level switches (-1)

    def __post_init__(self) -> None:
        n = len(self.ts_start)
        for name in ("session_id", "qoe_rebuffer", "qoe_level", "qoe_switches"):
            if getattr(self, name) is None:
                setattr(
                    self,
                    name,
                    np.full(
                        n, self.COLUMN_FILL[name], dtype=self.COLUMN_DTYPES[name]
                    ),
                )
        for name in _ARRAY_FIELDS:
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has mismatched length")
        # normalize the documented i4 dtype: every construction path
        # (generator, packet records, npz round-trips of old captures)
        # must agree or concatenation silently widens the column
        if self.customer_id.dtype != np.int32:
            self.customer_id = self.customer_id.astype(np.int32)

    def __len__(self) -> int:
        return len(self.ts_start)

    #: Estimated per-string overhead of a pooled CPython str object
    #: (header + ascii payload bookkeeping), used by :attr:`nbytes`.
    _POOL_STR_OVERHEAD = 49

    @property
    def nbytes(self) -> int:
        """Approximate resident size: column bytes + pool estimate.

        The column part is exact (``ndarray.nbytes``); the categorical
        pools are estimated as one interned CPython string each. Used
        for quick memory triage of captures and streaming windows.
        """
        columns = sum(getattr(self, name).nbytes for name in _ARRAY_FIELDS)
        pools = sum(
            len(entry) + self._POOL_STR_OVERHEAD
            for name in _POOL_FIELDS
            for entry in getattr(self, name)
        )
        return columns + pools

    def __repr__(self) -> str:
        mb = self.nbytes / 1e6
        pools = ", ".join(
            f"{name}={len(getattr(self, name))}" for name in _POOL_FIELDS
        )
        return f"FlowFrame(flows={len(self):,}, nbytes={mb:.1f} MB, {pools})"

    # -- selection -----------------------------------------------------

    def filter(self, mask: np.ndarray) -> "FlowFrame":
        """A new frame with rows where ``mask`` is True.

        Pools are *copied* (same strings, fresh list objects): mutating
        one frame's pool must never corrupt the frames derived from it.
        """
        kwargs = {name: getattr(self, name)[mask] for name in _ARRAY_FIELDS}
        return FlowFrame(
            countries=list(self.countries),
            beams=list(self.beams),
            services=list(self.services),
            domains=list(self.domains),
            sites=list(self.sites),
            resolvers=list(self.resolvers),
            **kwargs,
        )

    def country_mask(self, country: str) -> np.ndarray:
        """Boolean mask of flows from ``country``."""
        return self.country_idx == self.countries.index(country)

    # -- derived columns -------------------------------------------------

    def bytes_total(self) -> np.ndarray:
        return self.bytes_up + self.bytes_down

    def download_throughput_bps(self) -> np.ndarray:
        """Gross download rate; nan where duration is 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = self.bytes_down * 8.0 / self.duration_s
        rate = np.asarray(rate, dtype=np.float64)
        rate[~np.isfinite(rate)] = np.nan
        return rate

    # -- grouping helpers --------------------------------------------------

    def customer_day_totals(
        self, value: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> Dict[tuple, float]:
        """Sum ``value`` per (customer, day) — the unit of Figures 5/7."""
        if mask is None:
            mask = np.ones(len(self), dtype=bool)
        keys_customer = self.customer_id[mask]
        keys_day = self.day[mask]
        values = value[mask]
        if len(values) == 0:  # reduceat rejects an empty segment list
            return {}
        combined = keys_customer.astype(np.int64) * 100_000 + keys_day.astype(np.int64)
        order = np.argsort(combined, kind="stable")
        combined = combined[order]
        values = values[order]
        boundaries = np.flatnonzero(np.diff(combined)) + 1
        sums = np.add.reduceat(values, np.concatenate(([0], boundaries)))
        unique = combined[np.concatenate(([0], boundaries))]
        return {
            (int(key // 100_000), int(key % 100_000)): float(total)
            for key, total in zip(unique, sums)
        }

    # -- persistence ---------------------------------------------------------

    def save_npz(self, path, compress: bool = True) -> None:
        """Persist the frame (columns + pools) to an ``.npz``.

        The paper ships daily flow summaries to long-term storage; this
        is the equivalent for synthetic captures — a 1 M-flow frame is
        a few tens of MB compressed and reloads in well under a second.
        ``compress=False`` trades disk for speed (what the capture
        cache uses: a multi-million-flow frame stores and reloads in
        a fraction of the compression time).
        """
        pools = {
            f"pool_{name}": np.array(getattr(self, name), dtype=object)
            for name in _POOL_FIELDS
        }
        columns = {name: getattr(self, name) for name in _ARRAY_FIELDS}
        writer = np.savez_compressed if compress else np.savez
        writer(path, **pools, **columns)

    @classmethod
    def load_npz(cls, path) -> "FlowFrame":
        """Load a frame written by :meth:`save_npz`.

        Every column is coerced to :attr:`COLUMN_DTYPES` — captures
        written before a dtype tightened (or by external tools) otherwise
        propagate drifted dtypes silently into every downstream
        aggregate. Columns added after a capture was written (the
        session/QoE columns) are backfilled with their sentinels so
        old captures keep loading.
        """
        with np.load(path, allow_pickle=True) as data:
            pools = {
                name: [str(x) for x in data[f"pool_{name}"]]
                for name in _POOL_FIELDS
            }
            present = set(data.files)
            n = len(data["ts_start"])
            columns = {
                name: (
                    data[name].astype(cls.COLUMN_DTYPES[name], copy=False)
                    if name in present
                    else np.full(
                        n, cls.COLUMN_FILL[name], dtype=cls.COLUMN_DTYPES[name]
                    )
                )
                for name in _ARRAY_FIELDS
            }
        return cls(**pools, **columns)

    # -- construction -------------------------------------------------------

    #: Documented column dtypes (see the field comments above) — the
    #: contract every construction path normalizes to.
    COLUMN_DTYPES = {
        "ts_start": np.float64,
        "day": np.int32,
        "hour_utc": np.float32,
        "customer_id": np.int32,
        "country_idx": np.int16,
        "subscriber_type": np.int8,
        "beam_idx": np.int16,
        "l7_idx": np.int8,
        "service_true_idx": np.int16,
        "domain_idx": np.int32,
        "bytes_up": np.float64,
        "bytes_down": np.float64,
        "duration_s": np.float32,
        "sat_rtt_ms": np.float32,
        "ground_rtt_ms": np.float32,
        "resolver_idx": np.int16,
        "dns_response_ms": np.float32,
        "site_idx": np.int16,
        "plan_down_mbps": np.float32,
        "session_id": np.int64,
        "qoe_rebuffer": np.float32,
        "qoe_level": np.float32,
        "qoe_switches": np.int16,
    }

    #: Sentinel value per column for rows where the column was not
    #: requested/measured — what a projected store materialization
    #: backfills so unrequested columns stay well-typed.
    COLUMN_FILL = {
        "ts_start": 0.0,
        "day": 0,
        "hour_utc": 0.0,
        "customer_id": 0,
        "country_idx": -1,
        "subscriber_type": -1,
        "beam_idx": -1,
        "l7_idx": 0,
        "service_true_idx": -1,
        "domain_idx": -1,
        "bytes_up": 0.0,
        "bytes_down": 0.0,
        "duration_s": 0.0,
        "sat_rtt_ms": np.nan,
        "ground_rtt_ms": np.nan,
        "resolver_idx": -1,
        "dns_response_ms": np.nan,
        "site_idx": -1,
        "plan_down_mbps": np.nan,
        "session_id": -1,
        "qoe_rebuffer": np.nan,
        "qoe_level": np.nan,
        "qoe_switches": -1,
    }

    @classmethod
    def empty(
        cls,
        countries: Sequence[str] = (),
        beams: Sequence[str] = (),
        services: Sequence[str] = (),
        domains: Sequence[str] = (),
        sites: Sequence[str] = (),
        resolvers: Sequence[str] = (),
    ) -> "FlowFrame":
        """A zero-row frame with the documented dtypes and given pools.

        Streaming captures use this for windows in which no customer
        produced a flow, so every stored window round-trips uniformly.
        """
        columns = {
            name: np.empty(0, dtype=dtype)
            for name, dtype in cls.COLUMN_DTYPES.items()
        }
        return cls(
            countries=list(countries),
            beams=list(beams),
            services=list(services),
            domains=list(domains),
            sites=list(sites),
            resolvers=list(resolvers),
            **columns,
        )

    @classmethod
    def concat(cls, frames: Sequence["FlowFrame"]) -> "FlowFrame":
        """Concatenate frames that share identical pools."""
        if not frames:
            raise ValueError("no frames to concatenate")
        first = frames[0]
        for frame in frames[1:]:
            for pool in _POOL_FIELDS:
                if getattr(frame, pool) != getattr(first, pool):
                    raise ValueError(
                        f"frames must share categorical pools ({pool} differs)"
                    )
        kwargs = {
            name: np.concatenate([getattr(frame, name) for frame in frames])
            for name in _ARRAY_FIELDS
        }
        return cls(
            countries=list(first.countries),
            beams=list(first.beams),
            services=list(first.services),
            domains=list(first.domains),
            sites=list(first.sites),
            resolvers=list(first.resolvers),
            **kwargs,
        )
