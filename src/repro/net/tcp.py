"""Simulated TCP endpoint.

A deliberately compact TCP implementation for the packet-level
simulator: three-way handshake, byte-stream sequencing with cumulative
ACKs, MSS segmentation, a fixed sliding window, orderly FIN teardown,
and (optionally, via ``rto_s``) a go-back-N retransmission timer with
exponential backoff for lossy ground paths. Congestion control is
deliberately absent — that is exactly what the PEP decouples away.

The endpoint emits :class:`repro.net.packet.Packet` objects through a
caller-supplied ``send_packet`` callable, which is where the
ground-station monitor taps the wire.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.net.packet import IPProtocol, Packet, TCPFlags
from repro.simnet.engine import Simulator

_SEQ_MOD = 1 << 32
DEFAULT_MSS = 1460
DEFAULT_WINDOW = 256 * 1024


class TcpState(enum.Enum):
    """Connection states (subset of RFC 793)."""

    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_WAIT = "fin-wait"
    CLOSE_WAIT = "close-wait"
    LAST_ACK = "last-ack"


class TcpEndpoint:
    """One side of a TCP connection.

    Callbacks:

    * ``on_established()`` — handshake completed.
    * ``on_data(bytes)`` — in-order payload delivered.
    * ``on_closed()`` — both FINs exchanged (or reset).
    """

    def __init__(
        self,
        sim: Simulator,
        local_ip: int,
        local_port: int,
        remote_ip: int,
        remote_port: int,
        send_packet: Callable[[Packet], None],
        on_data: Optional[Callable[[bytes], None]] = None,
        on_established: Optional[Callable[[], None]] = None,
        on_closed: Optional[Callable[[], None]] = None,
        mss: int = DEFAULT_MSS,
        window_bytes: int = DEFAULT_WINDOW,
        rto_s: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self._send_packet = send_packet
        self.on_data = on_data
        self.on_established = on_established
        self.on_closed = on_closed
        self.mss = mss
        self.window_bytes = window_bytes

        self.rto_s = rto_s
        self.retransmissions = 0

        self.state = TcpState.CLOSED
        self._snd_nxt = 0  # next byte to send (absolute stream offset)
        self._snd_una = 0  # oldest unacknowledged byte
        self._rcv_nxt = 0  # next expected byte from peer
        self._send_buffer = bytearray()
        self._close_requested = False
        self._fin_sent = False
        self._fin_acked = False
        self._fin_received = False
        self._outstanding: list = []  # [(seq_abs, payload)] in order
        self._timer = None
        self._backoff = 1.0

    # -- public API ----------------------------------------------------

    def connect(self) -> None:
        """Active open: send SYN."""
        if self.state != TcpState.CLOSED:
            raise RuntimeError(f"connect() in state {self.state}")
        self.state = TcpState.SYN_SENT
        if self.rto_s is not None:
            self._arm_timer()
        self._emit(TCPFlags.SYN, seq=0, ack_flag=False)
        self._snd_nxt = 1  # SYN consumes one sequence number
        self._snd_una = 1

    def listen(self) -> None:
        """Passive open."""
        if self.state != TcpState.CLOSED:
            raise RuntimeError(f"listen() in state {self.state}")
        self.state = TcpState.LISTEN

    def send(self, data: bytes) -> None:
        """Queue application data for transmission."""
        if self._close_requested:
            raise RuntimeError("send() after close()")
        self._send_buffer += data
        self._pump()

    def close(self) -> None:
        """Orderly shutdown once the send buffer drains."""
        self._close_requested = True
        self._pump()

    def abort(self) -> None:
        """Send RST and drop the connection."""
        self._emit(TCPFlags.RST | TCPFlags.ACK)
        self._become_closed()

    @property
    def bytes_in_flight(self) -> int:
        return self._snd_nxt - self._snd_una

    # -- packet handling ------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        """Process a packet addressed to this endpoint."""
        if packet.has_flag(TCPFlags.RST):
            self._become_closed()
            return

        if self.state == TcpState.LISTEN:
            if packet.has_flag(TCPFlags.SYN):
                self.state = TcpState.SYN_RCVD
                self._rcv_nxt = 1
                self._emit(TCPFlags.SYN | TCPFlags.ACK, seq=0)
                self._snd_nxt = 1
                self._snd_una = 1
            return

        if self.state == TcpState.SYN_SENT:
            if packet.has_flag(TCPFlags.SYN) and packet.has_flag(TCPFlags.ACK):
                self._rcv_nxt = 1
                self._snd_una = 1
                self.state = TcpState.ESTABLISHED
                self._emit(TCPFlags.ACK)
                if self.on_established:
                    self.on_established()
                self._pump()
            return

        if self.state == TcpState.SYN_RCVD:
            if packet.has_flag(TCPFlags.SYN):
                # Duplicate SYN: our SYN-ACK was lost — resend it.
                self._emit(TCPFlags.SYN | TCPFlags.ACK, seq=0)
                return
            if packet.has_flag(TCPFlags.ACK) and packet.ack >= 1:
                self.state = TcpState.ESTABLISHED
                if self.on_established:
                    self.on_established()
                # fall through: the ACK may carry data

        self._handle_ack(packet)
        self._handle_payload(packet)
        self._handle_fin(packet)
        self._pump()
        self._maybe_finish_close()

    # -- internals -------------------------------------------------------

    def _handle_ack(self, packet: Packet) -> None:
        if not packet.has_flag(TCPFlags.ACK):
            return
        ack = packet.ack
        if ack > self._snd_una:
            self._snd_una = ack
            self._backoff = 1.0  # progress: reset the RTO backoff
            self._outstanding = [
                (seq, payload)
                for seq, payload in self._outstanding
                if seq + len(payload) > ack
            ]
        fin_seq_end = self._snd_nxt  # FIN consumed the last number
        if self._fin_sent and ack >= fin_seq_end:
            self._fin_acked = True

    def _handle_payload(self, packet: Packet) -> None:
        if packet.payload_len == 0:
            return
        if packet.seq != self._rcv_nxt % _SEQ_MOD and packet.seq != self._rcv_nxt:
            # Duplicate (already delivered) or a gap after a loss: re-ACK
            # so the sender learns our cumulative position; go-back-N
            # retransmission fills gaps in order.
            self._emit(TCPFlags.ACK)
            return
        self._rcv_nxt += packet.payload_len
        self._emit(TCPFlags.ACK)
        if self.on_data:
            self.on_data(packet.payload)

    def _handle_fin(self, packet: Packet) -> None:
        if not packet.has_flag(TCPFlags.FIN):
            return
        expected = self._rcv_nxt + packet.payload_len if packet.payload_len else self._rcv_nxt
        del expected  # payload already consumed by _handle_payload
        self._fin_received = True
        self._rcv_nxt += 1
        self._emit(TCPFlags.ACK)
        if self.state == TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT

    def _pump(self) -> None:
        """Transmit as much buffered data as the window allows."""
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT, TcpState.FIN_WAIT):
            return
        while self._send_buffer and self.bytes_in_flight < self.window_bytes:
            chunk_len = min(self.mss, len(self._send_buffer), self.window_bytes - self.bytes_in_flight)
            chunk = bytes(self._send_buffer[:chunk_len])
            del self._send_buffer[:chunk_len]
            if self.rto_s is not None:
                self._outstanding.append((self._snd_nxt, chunk))
                self._arm_timer()
            self._emit(TCPFlags.ACK | TCPFlags.PSH, payload=chunk, seq=self._snd_nxt)
            self._snd_nxt += chunk_len
        if self._close_requested and not self._send_buffer and not self._fin_sent:
            self._fin_sent = True
            if self.rto_s is not None:
                self._arm_timer()
            self._emit(TCPFlags.FIN | TCPFlags.ACK, seq=self._snd_nxt)
            self._snd_nxt += 1
            if self.state == TcpState.ESTABLISHED:
                self.state = TcpState.FIN_WAIT
            elif self.state == TcpState.CLOSE_WAIT:
                self.state = TcpState.LAST_ACK

    def _maybe_finish_close(self) -> None:
        if self._fin_sent and self._fin_acked and self._fin_received:
            self._become_closed()

    # -- retransmission (enabled via rto_s) --------------------------------

    def _arm_timer(self) -> None:
        if self._timer is None and self.rto_s is not None:
            self._timer = self.sim.schedule(
                self.rto_s * self._backoff, self._on_timeout
            )

    def _on_timeout(self) -> None:
        self._timer = None
        if self.state == TcpState.CLOSED:
            return
        if self.state == TcpState.SYN_SENT:
            self.retransmissions += 1
            self._backoff = min(self._backoff * 2.0, 16.0)
            self._emit(TCPFlags.SYN, seq=0, ack_flag=False)
            self._arm_timer()
            return
        needs_fin = self._fin_sent and not self._fin_acked
        if not self._outstanding and not needs_fin:
            return  # everything acked; let the timer lapse
        self._backoff = min(self._backoff * 2.0, 16.0)
        # Go-back-N: re-emit every unacknowledged segment in order.
        for seq, payload in self._outstanding:
            self.retransmissions += 1
            self._emit(TCPFlags.ACK | TCPFlags.PSH, payload=payload, seq=seq)
        if needs_fin:
            self.retransmissions += 1
            self._emit(TCPFlags.FIN | TCPFlags.ACK, seq=self._snd_nxt - 1)
        self._arm_timer()

    def _become_closed(self) -> None:
        if self.state == TcpState.CLOSED:
            return
        self.state = TcpState.CLOSED
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._outstanding.clear()
        if self.on_closed:
            self.on_closed()

    def _emit(
        self,
        flags: TCPFlags,
        payload: bytes = b"",
        seq: Optional[int] = None,
        ack_flag: bool = True,
    ) -> None:
        packet = Packet(
            src_ip=self.local_ip,
            dst_ip=self.remote_ip,
            src_port=self.local_port,
            dst_port=self.remote_port,
            protocol=IPProtocol.TCP,
            payload=payload,
            flags=flags,
            seq=(self._snd_nxt if seq is None else seq) % _SEQ_MOD,
            ack=self._rcv_nxt % _SEQ_MOD if (flags & TCPFlags.ACK) else 0,
            timestamp=self.sim.now,
        )
        self._send_packet(packet)
