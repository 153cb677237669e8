"""Analytic object-fetch model: what the PEP buys (and what it can't).

Section 2.1: the CPE completes the TCP handshake locally, and the
split proxies decouple congestion control, so with the PEP a fetch
costs roughly one satellite round trip for the (end-to-end) TLS
exchange plus serialized transfer at the shaped rate. Without the PEP
every TCP round trip — handshake, TLS, and each slow-start round —
pays the full ~550 ms satellite RTT.

Used by the PEP ablation benchmark and the ERRANT emulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import ETHERNET_MTU

_MSS = ETHERNET_MTU - 40
_INITIAL_CWND_SEGMENTS = 10


@dataclass(frozen=True)
class FetchParameters:
    """Inputs of one object fetch."""

    size_bytes: float
    satellite_rtt_s: float
    ground_rtt_s: float
    rate_bps: float
    tls: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes < 0 or self.rate_bps <= 0:
            raise ValueError("invalid fetch parameters")
        if self.satellite_rtt_s < 0 or self.ground_rtt_s < 0:
            raise ValueError("RTTs must be non-negative")


def slow_start_rounds(size_bytes: float, rate_bps: float, rtt_s: float) -> int:
    """Round trips spent in slow start before the pipe fills.

    cwnd doubles each RTT from 10 segments; a round is "free" once the
    window covers the bandwidth-delay product or the remaining bytes.
    """
    if size_bytes <= 0:
        return 0
    bdp_bytes = rate_bps * rtt_s / 8.0
    cwnd = _INITIAL_CWND_SEGMENTS * _MSS
    rounds = 0
    sent = 0.0
    while sent < size_bytes and cwnd < bdp_bytes:
        sent += cwnd
        cwnd *= 2
        rounds += 1
    return rounds


def fetch_time_with_pep(params: FetchParameters) -> float:
    """Fetch latency through the split-TCP PEP.

    The CPE answers the handshake instantly; the TLS exchange (which
    the PEP cannot terminate) costs one satellite round trip; the
    ground-side proxy fills its buffer at backbone speed, so the
    transfer is serialized only at the shaped access rate.
    """
    tls_cost = params.satellite_rtt_s + params.ground_rtt_s if params.tls else 0.0
    request = (params.satellite_rtt_s + params.ground_rtt_s) / 2.0 * 2.0  # req→first byte
    transfer = params.size_bytes * 8.0 / params.rate_bps
    return tls_cost + request + transfer


def fetch_time_without_pep(params: FetchParameters) -> float:
    """Fetch latency with plain end-to-end TCP over the satellite.

    Handshake (1 RTT) + TLS (2 RTTs) + a request round trip + slow
    start at the full end-to-end RTT + serialized transfer.
    """
    rtt = params.satellite_rtt_s + params.ground_rtt_s
    handshake = rtt
    tls_cost = 2.0 * rtt if params.tls else 0.0
    rounds = slow_start_rounds(params.size_bytes, params.rate_bps, rtt)
    transfer = params.size_bytes * 8.0 / params.rate_bps
    return handshake + tls_cost + rtt + rounds * rtt + transfer


def pep_speedup(params: FetchParameters) -> float:
    """without-PEP time / with-PEP time (>1 when the PEP helps)."""
    with_pep = fetch_time_with_pep(params)
    if with_pep <= 0:
        return float("inf")
    return fetch_time_without_pep(params) / with_pep
