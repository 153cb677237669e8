"""Per-flow summary records.

The paper's probe extracts "hundreds of statistics" per flow; we keep
the ones the analyses use: size and duration, per-direction volume,
timing of the first packets, the ground TCP RTT statistics, the
TLS-estimated satellite RTT, the contacted domain, and the DNS fields.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Optional


class L7Protocol(enum.Enum):
    """Application protocol labels used in Table 1 / Figure 3."""

    HTTPS = "tcp/https"
    HTTP = "tcp/http"
    OTHER_TCP = "tcp/other"
    QUIC = "udp/quic"
    RTP = "udp/rtp"
    DNS = "udp/dns"
    OTHER_UDP = "udp/other"


#: Stable ordering of protocol labels for columnar encoding.
L7_ORDER = [
    L7Protocol.HTTPS,
    L7Protocol.HTTP,
    L7Protocol.OTHER_TCP,
    L7Protocol.QUIC,
    L7Protocol.RTP,
    L7Protocol.DNS,
    L7Protocol.OTHER_UDP,
]


@dataclass
class FlowRecord:
    """One monitored flow, as exported by the probe."""

    # Identity (client = the customer side; address already anonymized
    # when the meter is configured with an anonymizer).
    client_ip: int
    server_ip: int
    client_port: int
    server_port: int
    l7: L7Protocol

    # Timing.
    ts_start: float
    ts_end: float

    # Volume.
    bytes_up: int = 0
    bytes_down: int = 0
    pkts_up: int = 0
    pkts_down: int = 0

    # Ground-segment TCP RTT statistics (ms), from data↔ACK matching.
    rtt_samples: int = 0
    rtt_min_ms: Optional[float] = None
    rtt_avg_ms: Optional[float] = None
    rtt_max_ms: Optional[float] = None
    rtt_std_ms: Optional[float] = None

    # Satellite-segment RTT (ms) from the TLS-handshake method.
    sat_rtt_ms: Optional[float] = None

    # DPI annotations.
    domain: Optional[str] = None
    dns_qname: Optional[str] = None
    dns_resolver_ip: Optional[int] = None
    dns_response_ms: Optional[float] = None
    dns_rcode: Optional[int] = None

    # Timestamps of the first packets (Section 2.2 metric ii).
    first_pkt_times: List[float] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        """Flow duration, first to last packet."""
        return max(0.0, self.ts_end - self.ts_start)

    @property
    def bytes_total(self) -> int:
        return self.bytes_up + self.bytes_down

    def download_throughput_bps(self) -> Optional[float]:
        """Gross download rate (Section 6.5); None for instantaneous flows."""
        if self.duration_s <= 0 or self.bytes_down == 0:
            return None
        return self.bytes_down * 8.0 / self.duration_s


def rtt_stats_ms(samples_s: List[float]) -> dict:
    """min/avg/max/std over RTT samples, converted to milliseconds."""
    if not samples_s:
        return {
            "rtt_samples": 0,
            "rtt_min_ms": None,
            "rtt_avg_ms": None,
            "rtt_max_ms": None,
            "rtt_std_ms": None,
        }
    ms = [s * 1000.0 for s in samples_s]
    n = len(ms)
    mean = sum(ms) / n
    variance = sum((x - mean) ** 2 for x in ms) / n
    return {
        "rtt_samples": n,
        "rtt_min_ms": min(ms),
        "rtt_avg_ms": mean,
        "rtt_max_ms": max(ms),
        "rtt_std_ms": math.sqrt(variance),
    }
