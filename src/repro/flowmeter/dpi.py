"""Deep packet inspection.

Classifies each flow into the protocol classes of Table 1 and extracts
the server *domain*: the SNI of TLS ClientHellos (port 443/TCP and
QUIC), the Host header of plain HTTP, and the QNAME of DNS queries
(plus response timing and resolver address). Parsing is incremental —
payload bytes are appended per packet and the reassembled stream is
re-examined, so handshake messages are timestamped by the packet that
completed them (which is what makes the TLS satellite-RTT trick work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set

from repro.net.flowkey import Direction
from repro.protocols import dns, http, quic, rtp, tls
from repro.flowmeter.records import L7Protocol

_MAX_REASSEMBLY_BYTES = 16 * 1024
"""DPI only needs the first flights of each flow."""


@dataclass
class DpiResult:
    """What the DPI learned about a flow so far."""

    l7: Optional[L7Protocol] = None
    domain: Optional[str] = None
    dns_qname: Optional[str] = None
    dns_query_at: Optional[float] = None
    dns_response_at: Optional[float] = None
    dns_rcode: Optional[int] = None

    @property
    def dns_response_ms(self) -> Optional[float]:
        if self.dns_query_at is None or self.dns_response_at is None:
            return None
        return (self.dns_response_at - self.dns_query_at) * 1000.0


class DpiEngine:
    """Per-flow incremental protocol identification.

    Callers feed ``on_payload`` with each packet's payload; TLS
    handshake milestones are reported through the two callbacks so the
    flow meter can drive its satellite-RTT estimator.
    """

    def __init__(
        self,
        protocol: str,
        server_port: int,
        on_server_hello: Optional[Callable[[float], None]] = None,
        on_client_key_exchange: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.protocol = protocol
        self.server_port = server_port
        self.result = DpiResult()
        self._on_server_hello = on_server_hello
        self._on_client_key_exchange = on_client_key_exchange
        self._buffers: Dict[Direction, bytearray] = {
            Direction.CLIENT_TO_SERVER: bytearray(),
            Direction.SERVER_TO_CLIENT: bytearray(),
        }
        self._seen_handshake: Set[tls.HandshakeType] = set()
        self._client_ccs_seen = False
        self._tls_ruled_out = False
        self._http_ruled_out = False

    def on_payload(self, direction: Direction, payload: bytes, now: float) -> None:
        """Feed one packet's L4 payload to the engine."""
        if not payload:
            return
        if self.protocol == "udp":
            self._inspect_udp(direction, payload, now)
            return
        buffer = self._buffers[direction]
        if len(buffer) < _MAX_REASSEMBLY_BYTES:
            buffer += payload
        self._inspect_tcp(direction, now)

    # -- TCP ----------------------------------------------------------

    def _inspect_tcp(self, direction: Direction, now: float) -> None:
        buffer = bytes(self._buffers[direction])
        if not self._tls_ruled_out and tls.looks_like_tls(buffer):
            self._inspect_tls(direction, buffer, now)
            return
        if direction is Direction.CLIENT_TO_SERVER and not self._http_ruled_out:
            if http.looks_like_http(buffer):
                request = http.parse_request(buffer)
                if request is not None:
                    self.result.l7 = L7Protocol.HTTP
                    if request.host:
                        self.result.domain = request.host
                    return
            self._http_ruled_out = True
        if self.result.l7 is None:
            self._tls_ruled_out = self._tls_ruled_out or bool(buffer)
            self.result.l7 = L7Protocol.OTHER_TCP

    def _inspect_tls(self, direction: Direction, buffer: bytes, now: float) -> None:
        parsed = tls.parse_stream(buffer)
        if not parsed.records:
            return
        self.result.l7 = L7Protocol.HTTPS
        if parsed.sni and self.result.domain is None:
            self.result.domain = parsed.sni
        for msg_type in parsed.handshake_types:
            if msg_type in self._seen_handshake:
                continue
            self._seen_handshake.add(msg_type)
            if msg_type == tls.HandshakeType.SERVER_HELLO and self._on_server_hello:
                self._on_server_hello(now)
            if (
                msg_type == tls.HandshakeType.CLIENT_KEY_EXCHANGE
                and self._on_client_key_exchange
            ):
                self._on_client_key_exchange(now)
        # TLS 1.3 has no ClientKeyExchange; the paper's estimator accepts
        # the client's ChangeCipherSpec as the return milestone instead
        # ("Client Key Exchange message/Change Cipher Spec message").
        if (
            direction is Direction.CLIENT_TO_SERVER
            and not self._client_ccs_seen
            and tls.HandshakeType.CLIENT_KEY_EXCHANGE not in self._seen_handshake
            and any(
                r.content_type == tls.ContentType.CHANGE_CIPHER_SPEC
                for r in parsed.records
            )
        ):
            self._client_ccs_seen = True
            if self._on_client_key_exchange:
                self._on_client_key_exchange(now)

    # -- UDP ----------------------------------------------------------

    def _inspect_udp(self, direction: Direction, payload: bytes, now: float) -> None:
        if self.server_port == 53 and dns.looks_like_dns(payload):
            self._inspect_dns(direction, payload, now)
            return
        if quic.looks_like_quic(payload):
            self.result.l7 = L7Protocol.QUIC
            if self.result.domain is None:
                sni = quic.extract_sni(payload)
                if sni:
                    self.result.domain = sni
            return
        if rtp.looks_like_rtp(payload) and self.result.l7 in (None, L7Protocol.RTP):
            if rtp.decode(payload) is not None:
                self.result.l7 = L7Protocol.RTP
                return
        if self.result.l7 is None:
            self.result.l7 = L7Protocol.OTHER_UDP

    def _inspect_dns(self, direction: Direction, payload: bytes, now: float) -> None:
        try:
            message = dns.decode(payload)
        except ValueError:
            if self.result.l7 is None:
                self.result.l7 = L7Protocol.OTHER_UDP
            return
        self.result.l7 = L7Protocol.DNS
        if not message.is_response:
            if self.result.dns_query_at is None:
                self.result.dns_query_at = now
                self.result.dns_qname = message.qname
        else:
            if self.result.dns_response_at is None:
                self.result.dns_response_at = now
                self.result.dns_rcode = message.rcode
                if self.result.dns_qname is None:
                    self.result.dns_qname = message.qname
