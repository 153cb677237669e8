"""Endpoint applications for the packet-level simulator.

Client and server state machines that speak the real wire formats of
:mod:`repro.protocols` over the PEP-proxied byte streams: a TLS client
(handshake → request → download), a TLS/HTTP server, and a DNS client.
Their timing is what the ground-station flow meter must recover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.protocols import http, tls
from repro.simnet.engine import Simulator


class TlsServerApp:
    """Server side of a TLS exchange over a byte-stream connection.

    TLS 1.2 flavour: ClientHello → ServerHello flight; ClientKeyExchange
    flight → server Finished; request record → ``response_bytes`` of
    application data, then close. TLS 1.3 flavour (``tls13=True``):
    ClientHello → ServerHello+CCS+encrypted handshake; the client's CCS
    + Finished + request trigger the response (no ClientKeyExchange).
    """

    def __init__(
        self,
        send: Callable[[bytes], None],
        close: Callable[[], None],
        response_bytes: int = 100_000,
        certificate_len: int = 2000,
        tls13: bool = False,
    ) -> None:
        self._send = send
        self._close = close
        self.response_bytes = response_bytes
        self.certificate_len = certificate_len
        self.tls13 = tls13
        self._buffer = bytearray()
        self._sent_server_hello = False
        self._sent_finished = False
        self._sent_response = False

    def on_data(self, data: bytes) -> None:
        """Feed bytes received from the client."""
        self._buffer += data
        parsed = tls.parse_stream(bytes(self._buffer))
        types = parsed.handshake_types
        if not self._sent_server_hello and tls.HandshakeType.CLIENT_HELLO in types:
            self._sent_server_hello = True
            if self.tls13:
                self._sent_finished = True  # rides in the same flight
                self._send(tls.server_hello_tls13(certificate_len=self.certificate_len))
            else:
                self._send(tls.server_hello(certificate_len=self.certificate_len))
        if (
            not self.tls13
            and not self._sent_finished
            and tls.HandshakeType.CLIENT_KEY_EXCHANGE in types
        ):
            self._sent_finished = True
            self._send(tls.server_finished())
        if self._sent_finished and not self._sent_response:
            app_bytes = sum(
                r.length
                for r in parsed.records
                if r.content_type == tls.ContentType.APPLICATION_DATA
            )
            # TLS 1.3: the first ~52 app-data bytes are the encrypted
            # Finished, not the request.
            threshold = 60 if self.tls13 else 1
            if app_bytes >= threshold:
                self._sent_response = True
                self._send(tls.application_data(self.response_bytes))
                self._close()


class HttpServerApp:
    """Plain-HTTP server: full request head in → response out → close."""

    def __init__(
        self,
        send: Callable[[bytes], None],
        close: Callable[[], None],
        response_bytes: int = 50_000,
    ) -> None:
        self._send = send
        self._close = close
        self.response_bytes = response_bytes
        self._buffer = bytearray()
        self._responded = False

    def on_data(self, data: bytes) -> None:
        """Feed bytes received from the client."""
        if self._responded:
            return
        self._buffer += data
        if b"\r\n\r\n" in self._buffer:
            self._responded = True
            self._send(http.encode_response(self.response_bytes))
            self._close()


@dataclass
class TlsClientResult:
    """Ground truth collected by a TLS client run."""

    connect_at: Optional[float] = None
    sent_client_hello_at: Optional[float] = None
    got_server_hello_at: Optional[float] = None
    sent_key_exchange_at: Optional[float] = None
    handshake_done_at: Optional[float] = None
    bytes_received: int = 0
    finished_at: Optional[float] = None

    @property
    def complete(self) -> bool:
        return self.finished_at is not None


class TlsClientApp:
    """Client side: handshake, one request, download, done.

    ``compute_delay_s`` models the end device's key-exchange computation
    — part of what the paper's satellite-RTT estimator (deliberately)
    includes, since the home segment is negligible next to it.
    ``tls13=True`` switches to the TLS 1.3 message flow (no
    ClientKeyExchange; the return milestone is the client CCS).
    """

    def __init__(
        self,
        sim: Simulator,
        sni: str,
        request_bytes: int = 350,
        expected_response_bytes: int = 100_000,
        compute_delay_s: float = 0.012,
        on_finished: Optional[Callable[["TlsClientApp"], None]] = None,
        tls13: bool = False,
    ) -> None:
        self.sim = sim
        self.sni = sni
        self.request_bytes = request_bytes
        self.expected_response_bytes = expected_response_bytes
        self.compute_delay_s = compute_delay_s
        self.on_finished = on_finished
        self.tls13 = tls13
        self.result = TlsClientResult()
        self._send: Optional[Callable[[bytes], None]] = None
        self._close: Optional[Callable[[], None]] = None
        self._buffer = bytearray()
        self._consumed = 0
        self._sent_key_exchange = False
        self._sent_request = False
        self._app_overhead = 0

    def start(self, send: Callable[[bytes], None], close: Callable[[], None]) -> None:
        """Attach the transport (PEP client socket) and kick off."""
        self._send = send
        self._close = close
        self.result.connect_at = self.sim.now
        self.result.sent_client_hello_at = self.sim.now
        send(tls.client_hello(self.sni))

    def on_data(self, data: bytes) -> None:
        """Bytes delivered by the CPE proxy."""
        self._buffer += data
        parsed = tls.parse_stream(bytes(self._buffer))
        types = parsed.handshake_types
        milestone = (
            tls.HandshakeType.SERVER_HELLO
            if self.tls13
            else tls.HandshakeType.SERVER_HELLO_DONE
        )
        if not self._sent_key_exchange and milestone in types:
            self._sent_key_exchange = True
            self.result.got_server_hello_at = self.sim.now
            self.sim.schedule(self.compute_delay_s, self._send_key_exchange)
        app_bytes = sum(
            r.length for r in parsed.records if r.content_type == tls.ContentType.APPLICATION_DATA
        )
        # TLS 1.3 wraps the server's encrypted handshake in app-data
        # records; discount what had arrived by the time we sent our
        # Finished (see _send_key_exchange) before declaring completion.
        handshake_overhead = self._app_overhead if self.tls13 else 0
        self.result.bytes_received = max(0, app_bytes - handshake_overhead)
        if (
            self.result.bytes_received >= self.expected_response_bytes
            and self.result.finished_at is None
        ):
            self.result.finished_at = self.sim.now
            if self._close:
                self._close()
            if self.on_finished:
                self.on_finished(self)

    def _send_key_exchange(self) -> None:
        self.result.sent_key_exchange_at = self.sim.now
        if self.tls13:
            # Everything app-data so far is the server's encrypted
            # handshake, not response payload.
            parsed = tls.parse_stream(bytes(self._buffer))
            self._app_overhead = sum(
                r.length
                for r in parsed.records
                if r.content_type == tls.ContentType.APPLICATION_DATA
            )
            self._send(tls.client_finished_tls13())
        else:
            self._send(tls.client_key_exchange())
        # The request rides right behind the Finished flight.
        self._send(tls.application_data(self.request_bytes))
        self._sent_request = True
        self.result.handshake_done_at = self.sim.now


class HttpClientApp:
    """Plain-HTTP client: one GET, read Content-Length, count the body.

    Exercises the probe's Host-header DPI path (12.1 % of the paper's
    volume is unencrypted HTTP — Sky video, software updates).
    """

    def __init__(
        self,
        sim: Simulator,
        host: str,
        path: str = "/",
        on_finished: Optional[Callable[["HttpClientApp"], None]] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.path = path
        self.on_finished = on_finished
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.bytes_received = 0
        self._close: Optional[Callable[[], None]] = None
        self._buffer = bytearray()
        self._content_length: Optional[int] = None

    def start(self, send: Callable[[bytes], None], close: Callable[[], None]) -> None:
        """Attach the transport and send the request."""
        from repro.protocols import http

        self._close = close
        self.started_at = self.sim.now
        send(http.encode_request(self.host, self.path))

    def on_data(self, data: bytes) -> None:
        """Bytes delivered by the CPE proxy."""
        self._buffer += data
        if self._content_length is None and b"\r\n\r\n" in self._buffer:
            head, _, _ = bytes(self._buffer).partition(b"\r\n\r\n")
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    self._content_length = int(line.split(b":", 1)[1].strip())
        if self._content_length is not None:
            head_len = bytes(self._buffer).find(b"\r\n\r\n") + 4
            self.bytes_received = len(self._buffer) - head_len
            if self.bytes_received >= self._content_length and self.finished_at is None:
                self.finished_at = self.sim.now
                if self._close:
                    self._close()
                if self.on_finished:
                    self.on_finished(self)

    @property
    def complete(self) -> bool:
        return self.finished_at is not None


class QuicClientApp:
    """QUIC download over the (un-proxied) UDP path.

    Sends an Initial carrying the SNI, then counts short-header data
    packets until ``expected_response_bytes`` arrive. UDP bypasses the
    PEP (Section 2.1 footnote 3), so the full satellite RTT is visible
    in the transfer timeline.
    """

    def __init__(
        self,
        sim: Simulator,
        sni: str,
        expected_response_bytes: int = 60_000,
        on_finished: Optional[Callable[["QuicClientApp"], None]] = None,
    ) -> None:
        self.sim = sim
        self.sni = sni
        self.expected_response_bytes = expected_response_bytes
        self.on_finished = on_finished
        self.started_at: Optional[float] = None
        self.first_byte_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.bytes_received = 0

    def initial_datagram(self) -> bytes:
        """The Initial packet to hand to ``CustomerHost.send_udp``."""
        from repro.protocols import quic

        self.started_at = self.sim.now
        return quic.encode_initial(self.sni)

    def on_datagram(self, payload: bytes, now: float) -> None:
        """A downlink datagram from the server."""
        if self.first_byte_at is None:
            self.first_byte_at = now
        self.bytes_received += len(payload)
        if (
            self.bytes_received >= self.expected_response_bytes
            and self.finished_at is None
        ):
            self.finished_at = now
            if self.on_finished:
                self.on_finished(self)

    @property
    def complete(self) -> bool:
        return self.finished_at is not None


class RtpSessionApp:
    """A paced RTP stream (voice call leg) over the UDP path.

    Emits ``n_packets`` at ``interval_s``; the far end echoes them, and
    we track the mouth-to-ear round trips the probe cannot see (it only
    observes the ground side).
    """

    def __init__(
        self,
        sim: Simulator,
        n_packets: int = 20,
        interval_s: float = 0.02,
        payload_bytes: int = 160,
        ssrc: int = 0x1234,
    ) -> None:
        self.sim = sim
        self.n_packets = n_packets
        self.interval_s = interval_s
        self.payload_bytes = payload_bytes
        self.ssrc = ssrc
        self.sent = 0
        self.echoes = 0
        self.round_trips_s: list = []
        self._send: Optional[Callable[[bytes], None]] = None
        self._sent_at: dict = {}

    def start(self, send_datagram: Callable[[bytes], None]) -> None:
        """Begin pacing packets through ``send_datagram``."""
        self._send = send_datagram
        self._tick()

    def _tick(self) -> None:
        from repro.protocols import rtp

        if self.sent >= self.n_packets:
            return
        sequence = self.sent
        self._sent_at[sequence] = self.sim.now
        self._send(
            rtp.encode(sequence, sequence * 160, self.ssrc, b"\x00" * self.payload_bytes)
        )
        self.sent += 1
        self.sim.schedule(self.interval_s, self._tick)

    def on_datagram(self, payload: bytes, now: float) -> None:
        """An echoed RTP packet from the far end."""
        from repro.protocols import rtp

        header = rtp.decode(payload)
        if header is None:
            return
        sent_at = self._sent_at.get(header.sequence)
        if sent_at is not None:
            self.echoes += 1
            self.round_trips_s.append(now - sent_at)
