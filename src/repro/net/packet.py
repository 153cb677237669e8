"""Simulated packet representation.

Packets carry enough header state for the flow meter to do everything
Tstat does in the paper: 5-tuple tracking, TCP sequence/ACK RTT
estimation, and DPI over the (real, wire-format) payload bytes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.constants import IPV4_HEADER_LEN, TCP_HEADER_LEN, UDP_HEADER_LEN


class IPProtocol(enum.IntEnum):
    """IP protocol numbers used in the simulation."""

    TCP = 6
    UDP = 17


class TCPFlags(enum.IntFlag):
    """TCP header flags (subset)."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10


@dataclass
class Packet:
    """A simulated IPv4 packet.

    ``payload`` holds real protocol bytes (a TLS record, a DNS message…)
    so the DPI module parses genuine wire formats. Sequence and ACK
    numbers are plain Python ints; the flow meter handles them modulo
    2**32 like a real implementation would.
    """

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: IPProtocol
    payload: bytes = b""
    flags: TCPFlags = TCPFlags(0)
    seq: int = 0
    ack: int = 0
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.src_port <= 65535 or not 0 <= self.dst_port <= 65535:
            raise ValueError("port out of range")

    @property
    def payload_len(self) -> int:
        """Bytes of L4 payload."""
        return len(self.payload)

    @property
    def size_bytes(self) -> int:
        """Total on-the-wire size, including IP and L4 headers."""
        l4 = TCP_HEADER_LEN if self.protocol == IPProtocol.TCP else UDP_HEADER_LEN
        return IPV4_HEADER_LEN + l4 + len(self.payload)

    def has_flag(self, flag: TCPFlags) -> bool:
        """True when ``flag`` is set (TCP only)."""
        return bool(self.flags & flag)

    def reply_template(self) -> "Packet":
        """A packet skeleton going the opposite direction."""
        return Packet(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            src_port=self.dst_port,
            dst_port=self.src_port,
            protocol=self.protocol,
        )
