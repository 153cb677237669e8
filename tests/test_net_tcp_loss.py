"""Tests for TCP retransmission over lossy links."""

import numpy as np
import pytest

from repro.net.tcp import TcpEndpoint, TcpState
from repro.simnet.engine import Simulator
from repro.simnet.link import Link


class _LossyPair:
    """Endpoints joined by links that drop packets at random."""

    def __init__(self, loss: float, seed: int = 0, rto: float = 0.2):
        self.sim = Simulator()
        rng = np.random.default_rng(seed)
        self.link_ab = Link(self.sim, prop_delay_s=0.01, loss_probability=loss, rng=rng)
        self.link_ba = Link(self.sim, prop_delay_s=0.01, loss_probability=loss, rng=rng)
        self.received = bytearray()
        self.b = None
        self.a = TcpEndpoint(
            self.sim, 1, 10, 2, 20,
            send_packet=lambda p: self.link_ab.send(p, p.size_bytes, lambda q: self.b.handle_packet(q)),
            rto_s=rto,
        )
        self.b = TcpEndpoint(
            self.sim, 2, 20, 1, 10,
            send_packet=lambda p: self.link_ba.send(p, p.size_bytes, self.a.handle_packet),
            on_data=self.received.extend,
            rto_s=rto,
        )


def test_loss_probability_validated():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, loss_probability=1.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        Link(sim, loss_probability=0.1)  # rng required


def test_link_drops_fraction(rng):
    sim = Simulator()
    link = Link(sim, loss_probability=0.3, rng=rng)
    delivered = []
    for i in range(2000):
        link.send(i, 10, delivered.append)
    sim.run()
    assert len(delivered) == pytest.approx(1400, abs=120)
    assert link.stats.packets_dropped == 2000 - len(delivered)


@pytest.mark.parametrize("loss,seed", [(0.05, 1), (0.15, 2), (0.30, 3)])
def test_transfer_survives_loss(loss, seed):
    pair = _LossyPair(loss=loss, seed=seed)
    pair.b.listen()
    pair.a.connect()
    pair.sim.run(until=30.0)
    assert pair.a.state == TcpState.ESTABLISHED
    # (b may still sit in SYN_RCVD if the final handshake ACK was lost —
    # the first data segment completes it, as in real TCP.)
    payload = bytes(range(256)) * 80  # 20 480 bytes
    pair.a.send(payload)
    pair.sim.run(until=120.0)
    assert pair.b.state == TcpState.ESTABLISHED
    assert bytes(pair.received) == payload
    if loss >= 0.15:
        assert pair.a.retransmissions > 0


def test_handshake_survives_syn_loss():
    """Even if the very first SYN is dropped, the timer recovers."""

    class _FirstDropRng:
        def __init__(self):
            self.calls = 0

        def random(self):
            self.calls += 1
            return 0.0 if self.calls == 1 else 1.0

    sim = Simulator()
    rng = _FirstDropRng()
    link_ab = Link(sim, prop_delay_s=0.01, loss_probability=0.5, rng=rng)
    link_ba = Link(sim, prop_delay_s=0.01)
    b = None
    a = TcpEndpoint(
        sim, 1, 10, 2, 20,
        send_packet=lambda p: link_ab.send(p, p.size_bytes, lambda q: b.handle_packet(q)),
        rto_s=0.1,
    )
    b = TcpEndpoint(
        sim, 2, 20, 1, 10,
        send_packet=lambda p: link_ba.send(p, p.size_bytes, a.handle_packet),
    )
    b.listen()
    a.connect()
    sim.run(until=5.0)
    assert a.state == TcpState.ESTABLISHED
    assert a.retransmissions >= 1


def test_close_completes_despite_fin_loss():
    pair = _LossyPair(loss=0.25, seed=9)
    pair.b.listen()
    pair.a.connect()
    pair.sim.run(until=30.0)
    pair.a.send(b"goodbye")
    pair.a.close()
    pair.sim.run(until=60.0)
    pair.b.close()
    pair.sim.run(until=120.0)
    assert bytes(pair.received) == b"goodbye"
    assert pair.a.state == TcpState.CLOSED


def test_no_rto_means_no_retransmissions():
    pair = _LossyPair(loss=0.0, seed=1)
    pair.a.rto_s = None
    pair.b.listen()
    pair.a.connect()
    pair.sim.run()
    pair.a.send(b"x" * 5000)
    pair.sim.run()
    assert pair.a.retransmissions == 0
    assert bytes(pair.received) == b"x" * 5000


def test_karn_discards_samples_under_loss():
    """End-to-end: the flow meter's Karn rule keeps RTT statistics sane
    when it observes retransmissions."""
    from repro.flowmeter.meter import FlowMeter
    from repro.net.packet import IPProtocol

    pair = _LossyPair(loss=0.2, seed=4)
    meter = FlowMeter()

    original_ab = pair.a._send_packet
    original_ba = pair.b._send_packet

    def tap_ab(p):
        import dataclasses
        meter.process(dataclasses.replace(p, timestamp=pair.sim.now))
        original_ab(p)

    def tap_ba(p):
        import dataclasses
        meter.process(dataclasses.replace(p, timestamp=pair.sim.now))
        original_ba(p)

    pair.a._send_packet = tap_ab
    pair.b._send_packet = tap_ba
    pair.b.listen()
    pair.a.connect()
    pair.sim.run(until=30.0)
    pair.a.send(b"d" * 30_000)
    pair.sim.run(until=120.0)
    meter.flush_all()
    record = meter.records[0]
    # retransmitted ranges must not inflate the RTT estimate: every
    # surviving sample reflects the 20 ms path (plus queueing), never
    # an RTO-scale (200 ms+) ambiguity.
    if record.rtt_samples:
        assert record.rtt_max_ms < 150.0
