"""Shared aggregation primitives for the report modules."""

from __future__ import annotations

import re
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.analysis.dataset import FlowFrame
from repro.analysis.domains import TABLE2_DOMAIN_GROUPS
from repro.constants import ACTIVE_CUSTOMER_FLOW_THRESHOLD
from repro.internet.geo import COUNTRIES, lon_hour_shift
from repro.satcom.plans import PLAN_ORDER, plan_index_bulk


def hourly_volume_utc(frame: FlowFrame, country: str, robust: bool = True) -> np.ndarray:
    """Volume per UTC hour, normalized to its own maximum (Fig. 4).

    The paper averages three months of traffic over ~500 k subscribers;
    short synthetic captures are vulnerable to a single binge day — a
    handful of enormous flows — dominating an hour bin. The robust
    default therefore winsorizes flow volumes at the country's 99.5th
    percentile and takes the *median across days* per hour bin (set
    ``robust=False`` for the plain sum).
    """
    mask = frame.country_mask(country)
    hours = frame.hour_utc[mask].astype(int) % 24
    volume = frame.bytes_total()[mask].astype(np.float64)
    if robust:
        if len(volume):
            volume = np.minimum(volume, np.quantile(volume, 0.995))
        days = frame.day[mask]
        day_values = np.unique(days)
        per_day = np.zeros((len(day_values), 24))
        for row, day in enumerate(day_values):
            day_mask = days == day
            np.add.at(per_day[row], hours[day_mask], volume[day_mask])
        totals = np.median(per_day, axis=0)
    else:
        totals = np.zeros(24)
        np.add.at(totals, hours, volume)
    peak = totals.max()
    return totals / peak if peak > 0 else totals


def local_hour_offsets(countries: Sequence[str]) -> np.ndarray:
    """Hours ahead of UTC per country (longitude/15)."""
    return np.array(
        [lon_hour_shift(COUNTRIES[name]) for name in countries], dtype=np.float64
    )


def local_hour_of(frame: FlowFrame) -> np.ndarray:
    """Approximate local hour per flow (longitude/15 offset)."""
    offsets = local_hour_offsets(frame.countries)
    return (frame.hour_utc + offsets[frame.country_idx]) % 24.0


_TABLE2_PATTERNS = [re.compile(p) for p in TABLE2_DOMAIN_GROUPS.values()]


def table2_group_of_domains(domains: Sequence[str]) -> np.ndarray:
    """Per pool domain, the index of its first matching Table 2 domain
    group (:data:`~repro.analysis.domains.TABLE2_DOMAIN_GROUPS` order),
    else -1."""
    pool_group = np.full(len(domains), -1, dtype=np.int16)
    for d_idx, domain in enumerate(domains):
        for g_idx, pattern in enumerate(_TABLE2_PATTERNS):
            if pattern.search(domain):
                pool_group[d_idx] = g_idx
                break
    return pool_group


def fold_video_sessions(
    frame: FlowFrame,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]:
    """Figure 12: the frame's video sessions folded per (plan, country).

    Chunk flows repeat their session's QoE triple, so sessions are
    deduped on the globally unique ``session_id``; sessions on an
    unknown plan or with a non-finite QoE are dropped. Returns
    ``(rows, rebuffer, level, sums)``: per session its row
    ``plan * n_countries + country``, rebuffer ratio and mean level,
    and the flat per-row ``sums`` (sessions, rebuffer, level, switches).
    """
    has = np.flatnonzero(frame.session_id >= 0)
    _, first = np.unique(frame.session_id[has], return_index=True)
    session = has[first]
    plan = plan_index_bulk(frame.plan_down_mbps[session]).astype(np.int64)
    rebuf = frame.qoe_rebuffer[session].astype(np.float64)
    level = frame.qoe_level[session].astype(np.float64)
    ok = (plan >= 0) & np.isfinite(rebuf) & np.isfinite(level)
    session, rebuf, level = session[ok], rebuf[ok], level[ok]
    switches = frame.qoe_switches[session].astype(np.float64)
    nc = len(frame.countries)
    rows = plan[ok] * nc + frame.country_idx[session].astype(np.int64)
    size = len(PLAN_ORDER) * nc
    sums = (
        np.bincount(rows, minlength=size).astype(np.int64),
        np.bincount(rows, weights=rebuf, minlength=size),
        np.bincount(rows, weights=level, minlength=size),
        np.bincount(rows, weights=switches, minlength=size),
    )
    return rows, rebuf, level, sums


def customer_day_flow_counts(frame: FlowFrame, country: str) -> np.ndarray:
    """Flows per (customer, day) for one country (Figure 5a samples)."""
    mask = frame.country_mask(country)
    totals = frame.customer_day_totals(np.ones(len(frame)), mask)
    return np.array(list(totals.values()), dtype=np.float64)


def customer_day_bytes(
    frame: FlowFrame,
    country: str,
    direction: str = "down",
    active_only: bool = True,
) -> np.ndarray:
    """Daily bytes per customer (Figures 5b/5c samples).

    ``active_only`` applies the paper's ≥250 flows/day filter.
    """
    if direction not in ("down", "up"):
        raise ValueError("direction must be 'down' or 'up'")
    mask = frame.country_mask(country)
    value = frame.bytes_down if direction == "down" else frame.bytes_up
    volumes = frame.customer_day_totals(value, mask)
    if not active_only:
        return np.array(list(volumes.values()), dtype=np.float64)
    counts = frame.customer_day_totals(np.ones(len(frame)), mask)
    active = {
        key for key, count in counts.items() if count >= ACTIVE_CUSTOMER_FLOW_THRESHOLD
    }
    return np.array(
        [volume for key, volume in volumes.items() if key in active], dtype=np.float64
    )


def dominant_resolver_per_customer(frame: FlowFrame) -> Dict[int, int]:
    """customer → most-used resolver index, from DNS flows.

    This mirrors the paper's join for Table 2: TCP flows don't carry the
    resolver, so the analysis attributes each customer to the resolver
    answering most of its DNS queries.
    """
    dns_mask = frame.resolver_idx >= 0
    customers = frame.customer_id[dns_mask]
    resolvers = frame.resolver_idx[dns_mask]
    out: Dict[int, Dict[int, int]] = {}
    for customer, resolver in zip(customers, resolvers):
        out.setdefault(int(customer), {}).setdefault(int(resolver), 0)
        out[int(customer)][int(resolver)] += 1
    # Ties break to the lowest resolver index — deterministic, and the
    # same rule the streamed Table 2 bank applies (argmax).
    return {
        customer: max(counts, key=lambda r: (counts[r], -r))
        for customer, counts in out.items()
    }


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Plain-text table used by every report's ``render``."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
