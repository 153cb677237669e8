"""The flow meter facade: packets in, flow records out.

Mirrors the paper's probe: packets (already mirrored at the ground
station) are tracked per 5-tuple; each flow accumulates counters, RTT
samples and DPI annotations; records are emitted on TCP teardown or
idle timeout. Customer addresses are anonymized on export with the
prefix-preserving anonymizer (CryptoPan in the paper, Section 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.cryptopan import PrefixPreservingAnonymizer
from repro.net.flowkey import Direction, FiveTuple
from repro.net.packet import IPProtocol, Packet, TCPFlags
from repro.flowmeter.dpi import DpiEngine
from repro.flowmeter.records import FlowRecord, L7Protocol, rtt_stats_ms
from repro.flowmeter.rtt import TcpRttEstimator, TlsHandshakeRttEstimator

_FIRST_PKT_TIMES_KEPT = 10


@dataclass
class _FlowState:
    key: FiveTuple
    ts_start: float
    ts_end: float
    #: The server-perspective orientation of ``key``, computed once at
    #: flow creation so the per-packet lookup never rebuilds it.
    key_reversed: Optional[FiveTuple] = None
    bytes_up: int = 0
    bytes_down: int = 0
    pkts_up: int = 0
    pkts_down: int = 0
    fin_seen: Dict[Direction, bool] = field(
        default_factory=lambda: {Direction.CLIENT_TO_SERVER: False, Direction.SERVER_TO_CLIENT: False}
    )
    rst_seen: bool = False
    first_pkt_times: List[float] = field(default_factory=list)
    rtt: TcpRttEstimator = field(default_factory=TcpRttEstimator)
    tls_rtt: TlsHandshakeRttEstimator = field(default_factory=TlsHandshakeRttEstimator)
    dpi: Optional[DpiEngine] = None

    def __post_init__(self) -> None:
        if self.key_reversed is None:
            self.key_reversed = self.key.reversed()
        if self.dpi is None:
            self.dpi = DpiEngine(
                protocol="tcp" if self.key.protocol == IPProtocol.TCP else "udp",
                server_port=self.key.server_port,
                on_server_hello=self.tls_rtt.on_server_hello,
                on_client_key_exchange=self.tls_rtt.on_client_key_exchange,
            )


class FlowMeter:
    """Track flows from a packet stream and emit :class:`FlowRecord`.

    Parameters
    ----------
    anonymizer:
        Optional prefix-preserving anonymizer applied to the customer
        (client) address on record export — server addresses stay in
        the clear, as in the paper.
    idle_timeout_s:
        Flows idle longer than this are flushed by :meth:`expire`.
    """

    def __init__(
        self,
        anonymizer: Optional[PrefixPreservingAnonymizer] = None,
        idle_timeout_s: float = 120.0,
    ) -> None:
        self.anonymizer = anonymizer
        self.idle_timeout_s = idle_timeout_s
        self._flows: Dict[FiveTuple, _FlowState] = {}
        # both orientations of every active flow, resolved in a single
        # dict probe per packet (the paper's probe sees every packet of
        # every flow twice-directional — this is the hottest lookup)
        self._by_orientation: Dict[FiveTuple, Tuple[_FlowState, Direction]] = {}
        self.records: List[FlowRecord] = []
        self.packets_processed = 0

    @property
    def active_flows(self) -> int:
        """Number of flows currently tracked."""
        return len(self._flows)

    def process(self, packet: Packet) -> None:
        """Consume one mirrored packet."""
        self.packets_processed += 1
        lookup = self._lookup(packet)
        if lookup is None:
            return
        state, direction = lookup
        now = packet.timestamp
        state.ts_end = max(state.ts_end, now)
        if len(state.first_pkt_times) < _FIRST_PKT_TIMES_KEPT:
            state.first_pkt_times.append(now)

        if direction is Direction.CLIENT_TO_SERVER:
            state.bytes_up += packet.payload_len
            state.pkts_up += 1
        else:
            state.bytes_down += packet.payload_len
            state.pkts_down += 1

        if packet.protocol == IPProtocol.TCP:
            self._process_tcp(state, direction, packet, now)
        if packet.payload:
            state.dpi.on_payload(direction, packet.payload, now)

        if packet.protocol == IPProtocol.TCP and self._flow_finished(state):
            self._emit(state)

    def _process_tcp(
        self, state: _FlowState, direction: Direction, packet: Packet, now: float
    ) -> None:
        if packet.payload_len > 0:
            state.rtt.on_data(direction, packet.seq, packet.payload_len, now)
        if packet.has_flag(TCPFlags.ACK):
            state.rtt.on_ack(direction, packet.ack, now)
        if packet.has_flag(TCPFlags.FIN):
            state.fin_seen[direction] = True
        if packet.has_flag(TCPFlags.RST):
            state.rst_seen = True

    def _lookup(self, packet: Packet):
        forward, _ = FiveTuple.from_packet(packet)
        hit = self._by_orientation.get(forward)
        if hit is not None:
            return hit
        if packet.protocol == IPProtocol.TCP and not (
            packet.has_flag(TCPFlags.SYN) or packet.payload_len > 0
        ):
            # Stray teardown ACK of an already-exported flow: Tstat only
            # opens TCP flows on SYN or data.
            return None
        state = _FlowState(key=forward, ts_start=packet.timestamp, ts_end=packet.timestamp)
        self._flows[forward] = state
        self._by_orientation[forward] = (state, Direction.CLIENT_TO_SERVER)
        if state.key_reversed != forward:  # guard pathological symmetric keys
            self._by_orientation[state.key_reversed] = (
                state,
                Direction.SERVER_TO_CLIENT,
            )
        return state, Direction.CLIENT_TO_SERVER

    @staticmethod
    def _flow_finished(state: _FlowState) -> bool:
        return state.rst_seen or all(state.fin_seen.values())

    def _emit(self, state: _FlowState) -> None:
        self._flows.pop(state.key, None)
        self._by_orientation.pop(state.key, None)
        self._by_orientation.pop(state.key_reversed, None)
        self.records.append(self._to_record(state))

    def _to_record(self, state: _FlowState) -> FlowRecord:
        result = state.dpi.result
        l7 = result.l7
        if l7 is None:
            l7 = (
                L7Protocol.OTHER_TCP
                if state.key.protocol == IPProtocol.TCP
                else L7Protocol.OTHER_UDP
            )
        client_ip = state.key.client_ip
        if self.anonymizer is not None:
            client_ip = self.anonymizer.anonymize_int(client_ip)
        samples = state.rtt.ground_rtt_samples()
        stats = rtt_stats_ms(samples)
        sat_rtt = state.tls_rtt.estimate_s
        dns_resolver_ip = state.key.server_ip if l7 is L7Protocol.DNS else None
        return FlowRecord(
            client_ip=client_ip,
            server_ip=state.key.server_ip,
            client_port=state.key.client_port,
            server_port=state.key.server_port,
            l7=l7,
            ts_start=state.ts_start,
            ts_end=state.ts_end,
            bytes_up=state.bytes_up,
            bytes_down=state.bytes_down,
            pkts_up=state.pkts_up,
            pkts_down=state.pkts_down,
            sat_rtt_ms=None if sat_rtt is None else sat_rtt * 1000.0,
            domain=result.domain,
            dns_qname=result.dns_qname,
            dns_resolver_ip=dns_resolver_ip,
            dns_response_ms=result.dns_response_ms,
            dns_rcode=result.dns_rcode,
            first_pkt_times=list(state.first_pkt_times),
            **stats,
        )

    def expire(self, now: float) -> int:
        """Flush flows idle since before ``now - idle_timeout_s``."""
        stale = [
            state
            for state in self._flows.values()
            if now - state.ts_end >= self.idle_timeout_s
        ]
        for state in stale:
            self._emit(state)
        return len(stale)

    def flush_all(self) -> None:
        """Emit every tracked flow (end of capture)."""
        for state in list(self._flows.values()):
            self._emit(state)
