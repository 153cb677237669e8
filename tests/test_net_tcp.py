"""Tests for the simulated TCP endpoint (loopback pair harness)."""

import pytest

from repro.net.packet import TCPFlags
from repro.net.tcp import TcpEndpoint, TcpState
from repro.simnet.engine import Simulator
from repro.simnet.link import Link


class _Pair:
    """Two endpoints joined by symmetric links."""

    def __init__(self, one_way_s: float = 0.01, mss: int = 1460, window: int = 64 * 1024):
        self.sim = Simulator()
        self.link_ab = Link(self.sim, prop_delay_s=one_way_s)
        self.link_ba = Link(self.sim, prop_delay_s=one_way_s)
        self.received = {"a": bytearray(), "b": bytearray()}
        self.closed = {"a": False, "b": False}
        self.a = TcpEndpoint(
            self.sim, 1, 1000, 2, 443,
            send_packet=lambda p: self.link_ab.send(p, p.size_bytes, self.b_recv),
            on_data=lambda d: self.received["a"].extend(d),
            on_closed=lambda: self.closed.update(a=True),
            mss=mss, window_bytes=window,
        )
        self.b = TcpEndpoint(
            self.sim, 2, 443, 1, 1000,
            send_packet=lambda p: self.link_ba.send(p, p.size_bytes, self.a_recv),
            on_data=lambda d: self.received["b"].extend(d),
            on_closed=lambda: self.closed.update(b=True),
            mss=mss, window_bytes=window,
        )

    def a_recv(self, pkt):
        self.a.handle_packet(pkt)

    def b_recv(self, pkt):
        self.b.handle_packet(pkt)

    def connect(self):
        self.b.listen()
        self.a.connect()
        self.sim.run()


def test_three_way_handshake():
    pair = _Pair()
    pair.b.listen()
    pair.a.connect()
    pair.sim.run()
    assert pair.a.state == TcpState.ESTABLISHED
    assert pair.b.state == TcpState.ESTABLISHED


def test_data_transfer_client_to_server():
    pair = _Pair()
    pair.connect()
    pair.a.send(b"hello world")
    pair.sim.run()
    assert bytes(pair.received["b"]) == b"hello world"


def test_large_transfer_segmented():
    pair = _Pair()
    pair.connect()
    payload = bytes(range(256)) * 40  # 10240 bytes > several MSS
    pair.b.send(payload)
    pair.sim.run()
    assert bytes(pair.received["a"]) == payload


def test_transfer_larger_than_window():
    pair = _Pair(window=4 * 1460)
    pair.connect()
    payload = b"z" * (20 * 1460)
    pair.a.send(payload)
    pair.sim.run()
    assert bytes(pair.received["b"]) == payload


def test_bidirectional_transfer():
    pair = _Pair()
    pair.connect()
    pair.a.send(b"ping")
    pair.b.send(b"pong")
    pair.sim.run()
    assert bytes(pair.received["b"]) == b"ping"
    assert bytes(pair.received["a"]) == b"pong"


def test_orderly_close_both_sides():
    pair = _Pair()
    pair.connect()
    pair.a.send(b"bye")
    pair.a.close()
    pair.sim.run()
    assert bytes(pair.received["b"]) == b"bye"
    pair.b.close()
    pair.sim.run()
    assert pair.closed["a"] and pair.closed["b"]
    assert pair.a.state == pair.b.state == TcpState.CLOSED


def test_close_flushes_pending_data_before_fin():
    pair = _Pair(window=2 * 1460)
    pair.connect()
    payload = b"q" * (10 * 1460)
    pair.a.send(payload)
    pair.a.close()  # close with bytes still buffered
    pair.sim.run()
    assert bytes(pair.received["b"]) == payload


def test_abort_resets_peer():
    pair = _Pair()
    pair.connect()
    pair.a.abort()
    pair.sim.run()
    assert pair.a.state == TcpState.CLOSED
    assert pair.b.state == TcpState.CLOSED


def test_send_after_close_rejected():
    pair = _Pair()
    pair.connect()
    pair.a.close()
    with pytest.raises(RuntimeError):
        pair.a.send(b"late")


def test_connect_twice_rejected():
    pair = _Pair()
    pair.a.connect()
    with pytest.raises(RuntimeError):
        pair.a.connect()


def test_rtt_visible_in_transfer_time():
    pair = _Pair(one_way_s=0.1)
    pair.connect()
    start = pair.sim.now
    pair.a.send(b"x")
    pair.sim.run()
    # data + ack = one RTT
    assert pair.sim.now - start == pytest.approx(0.2, abs=0.01)


def test_emitted_packets_carry_timestamps_and_flags():
    sim = Simulator()
    sent = []
    endpoint = TcpEndpoint(sim, 1, 10, 2, 20, send_packet=sent.append)
    endpoint.connect()
    assert len(sent) == 1
    assert sent[0].has_flag(TCPFlags.SYN)
    assert endpoint.state == TcpState.SYN_SENT
