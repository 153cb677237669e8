"""Direct unit tests of the endpoint application state machines."""

import pytest

from repro.protocols import http, quic, rtp
from repro.satcom.apps import (
    HttpClientApp,
    HttpServerApp,
    QuicClientApp,
    RtpSessionApp,
    TlsClientApp,
    TlsServerApp,
)
from repro.simnet.engine import Simulator


# --- HTTP client -----------------------------------------------------------


def test_http_client_reads_content_length_across_chunks():
    sim = Simulator()
    sent = []
    app = HttpClientApp(sim, "files.example", "/blob")
    app.start(sent.append, lambda: None)
    assert http.parse_request(sent[0]).host == "files.example"

    response = http.encode_response(1000)
    for offset in range(0, len(response), 97):  # awkward chunking
        app.on_data(response[offset : offset + 97])
    assert app.complete
    assert app.bytes_received == 1000


def test_http_client_waits_for_full_body():
    sim = Simulator()
    app = HttpClientApp(sim, "files.example")
    app.start(lambda d: None, lambda: None)
    response = http.encode_response(500)
    app.on_data(response[:-100])
    assert not app.complete
    app.on_data(response[-100:])
    assert app.complete


def test_http_server_responds_once():
    sent = []
    closed = []
    server = HttpServerApp(sent.append, lambda: closed.append(True), response_bytes=10)
    server.on_data(http.encode_request("h.example"))
    server.on_data(http.encode_request("h.example"))
    assert len(sent) == 1
    assert closed == [True]


# --- QUIC client -----------------------------------------------------------


def test_quic_client_counts_bytes():
    sim = Simulator()
    app = QuicClientApp(sim, "q.example", expected_response_bytes=3000)
    datagram = app.initial_datagram()
    assert quic.extract_sni(datagram) == "q.example"
    for _ in range(3):
        app.on_datagram(b"\x40" + b"\x00" * 1199, now=1.0)
    assert app.complete
    assert app.bytes_received >= 3000
    assert app.first_byte_at == 1.0


def test_quic_client_finishes_once():
    sim = Simulator()
    finished = []
    app = QuicClientApp(sim, "q.example", expected_response_bytes=10,
                        on_finished=lambda a: finished.append(a))
    app.initial_datagram()
    app.on_datagram(b"\x40" * 20, now=0.5)
    app.on_datagram(b"\x40" * 20, now=0.6)
    assert finished == [app]
    assert app.finished_at == 0.5


# --- RTP session -------------------------------------------------------------


def test_rtp_session_paces_packets():
    sim = Simulator()
    sent_times = []
    app = RtpSessionApp(sim, n_packets=5, interval_s=0.02)
    app.start(lambda payload: sent_times.append(sim.now))
    sim.run()
    assert len(sent_times) == 5
    gaps = [b - a for a, b in zip(sent_times, sent_times[1:])]
    assert all(gap == pytest.approx(0.02) for gap in gaps)


def test_rtp_session_round_trips():
    sim = Simulator()
    app = RtpSessionApp(sim, n_packets=3, interval_s=0.01)
    outbox = []
    app.start(outbox.append)
    sim.run()
    for i, payload in enumerate(outbox):
        app.on_datagram(payload, now=0.01 * i + 0.6)
    assert app.echoes == 3
    assert all(0.5 < rtt < 0.7 for rtt in app.round_trips_s)


def test_rtp_session_ignores_garbage_echo():
    sim = Simulator()
    app = RtpSessionApp(sim, n_packets=1)
    app.start(lambda p: None)
    sim.run()
    app.on_datagram(b"not rtp", now=1.0)
    assert app.echoes == 0


# --- TLS server guard rails ----------------------------------------------------


def test_tls_server_single_response():
    sent = []
    server = TlsServerApp(sent.append, lambda: None, response_bytes=100)
    from repro.protocols import tls

    server.on_data(tls.client_hello("a.b"))
    server.on_data(tls.client_key_exchange())
    server.on_data(tls.application_data(300))
    server.on_data(tls.application_data(300))  # second request ignored
    # flight1 (SH) + finished + one response
    assert len(sent) == 3


def test_tls_client_records_timeline():
    sim = Simulator()
    from repro.protocols import tls

    app = TlsClientApp(sim, "t.example", expected_response_bytes=50, compute_delay_s=0.02)
    sent = []
    app.start(sent.append, lambda: None)
    app.on_data(tls.server_hello())
    sim.run()  # lets the compute delay elapse
    assert app.result.sent_key_exchange_at == pytest.approx(0.02)
    app.on_data(tls.application_data(50))
    assert app.result.complete
    compute_s = app.result.sent_key_exchange_at - app.result.got_server_hello_at
    assert compute_s == pytest.approx(0.02)
