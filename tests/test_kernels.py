"""The vectorized kernels against their python oracles.

Every kernel in ``repro.kernels`` carries the same contract: identical
observable output to the per-packet/per-call python implementation, or
a refusal that leaves state untouched. These tests sweep random and
crafted inputs through both sides and assert equality — including the
shapes that force the flow kernel's fallback and split-retry paths.
"""

import numpy as np
import pytest

from repro.kernels import ENGINES, resolve_engine
from repro.flowmeter.meter import FlowMeter
from repro.net.packet import IPProtocol, Packet, TCPFlags
from repro.protocols import dns as dnsproto

# -- engine knob ------------------------------------------------------------


def test_resolve_engine_accepts_known_names():
    assert resolve_engine("python") == "python"
    assert resolve_engine(" Vectorized ") == "vectorized"
    assert set(ENGINES) == {"python", "vectorized"}


@pytest.mark.parametrize("bad", ["cuda", "", "numpy", 3])
def test_resolve_engine_rejects_unknown(bad):
    with pytest.raises(ValueError):
        resolve_engine(bad)


# -- flow meter equivalence -------------------------------------------------


def _tcp(src, dst, sport, dport, ts, payload=b"", flags=TCPFlags(0), seq=0, ack=0):
    return Packet(
        src_ip=src,
        dst_ip=dst,
        src_port=sport,
        dst_port=dport,
        protocol=IPProtocol.TCP,
        payload=payload,
        flags=flags,
        seq=seq,
        ack=ack,
        timestamp=ts,
    )


def _udp(src, dst, sport, dport, ts, payload):
    return Packet(
        src_ip=src,
        dst_ip=dst,
        src_port=sport,
        dst_port=dport,
        protocol=IPProtocol.UDP,
        payload=payload,
        timestamp=ts,
    )


def _mixed_stream():
    """Interleaved flows hitting every kernel path: plain data flows,
    full FIN/FIN teardowns mid-batch (straddle -> split-retry), an RST
    teardown, stray ACKs to unseen 5-tuples (ignored), a symmetric-key
    pathology, DNS and QUIC and RTP over UDP."""
    packets = []
    ts = 0.0
    # three data-only TCP flows, interleaved
    for i in range(60):
        for f in range(3):
            client, server = 0x0A000001 + f, 0x08080810 + f
            packets.append(
                _tcp(
                    client, server, 40000 + f, 443, ts,
                    payload=b"z" * 100,
                    flags=TCPFlags.PSH | TCPFlags.ACK,
                    seq=i * 100,
                    ack=0,
                )
            )
            ts += 0.001
            if i % 7 == 0:  # server ACKs measuring RTT
                packets.append(
                    _tcp(
                        server, client, 443, 40000 + f, ts,
                        flags=TCPFlags.ACK, ack=(i + 1) * 100,
                    )
                )
                ts += 0.001
    # a complete teardown in the middle of the stream (straddle shape)
    c, s = 0x0A0000F0, 0x08080901
    packets.append(_tcp(c, s, 41000, 443, ts, flags=TCPFlags.SYN, seq=0))
    packets.append(
        _tcp(c, s, 41000, 443, ts + 0.01, payload=b"hello", seq=1,
             flags=TCPFlags.PSH | TCPFlags.ACK)
    )
    packets.append(
        _tcp(s, c, 443, 41000, ts + 0.3, flags=TCPFlags.FIN | TCPFlags.ACK,
             ack=6)
    )
    packets.append(
        _tcp(c, s, 41000, 443, ts + 0.4, flags=TCPFlags.FIN | TCPFlags.ACK)
    )
    # an RST teardown
    packets.append(_tcp(c, s, 41001, 443, ts + 0.5, payload=b"x", seq=0))
    packets.append(_tcp(s, c, 443, 41001, ts + 0.6, flags=TCPFlags.RST))
    # stray teardown ACKs to a 5-tuple the meter never opened
    packets.append(_tcp(c, s, 49999, 443, ts + 0.7, flags=TCPFlags.ACK))
    packets.append(_tcp(s, c, 443, 49999, ts + 0.8, flags=TCPFlags.ACK))
    # stray then open on the same 5-tuple (forces the kernel fallback)
    packets.append(_tcp(c, s, 50001, 443, ts + 0.85, flags=TCPFlags.ACK))
    packets.append(_tcp(c, s, 50001, 443, ts + 0.9, flags=TCPFlags.SYN))
    # symmetric-key pathology: same endpoint both sides
    packets.append(_tcp(c, c, 5555, 5555, ts + 0.95, payload=b"loop"))
    # UDP: DNS query/response, QUIC initial, RTP
    packets.append(
        _udp(c, 0x08080808, 53000, 53, ts + 1.0,
             dnsproto.encode_query(9, "cdn.example.org"))
    )
    packets.append(
        _udp(c, 0x08080910, 52000, 443, ts + 1.1,
             b"\xc0\x00\x00\x00\x01" + b"q" * 30)
    )
    packets.append(_udp(c, 0x08080920, 51000, 40000, ts + 1.2, b"\x80" + b"r" * 20))
    return packets


@pytest.mark.parametrize("batch_size", [1, 7, 64, 4096])
def test_vectorized_meter_matches_python(batch_size):
    stream = _mixed_stream()
    oracle = FlowMeter(engine="python")
    for packet in stream:
        oracle.process(packet)
    oracle.flush_all()

    vec = FlowMeter(engine="vectorized", batch_size=batch_size)
    for packet in stream:
        vec.process(packet)
    vec.flush_all()

    assert vec.packets_processed == oracle.packets_processed
    assert vec.records == oracle.records


def test_process_batch_equals_process_loop():
    stream = _mixed_stream()
    one_by_one = FlowMeter(engine="vectorized", batch_size=50)
    for packet in stream:
        one_by_one.process(packet)
    all_at_once = FlowMeter(engine="vectorized")
    all_at_once.process_batch(stream)
    one_by_one.flush_all()
    all_at_once.flush_all()
    assert one_by_one.records == all_at_once.records

    python_batch = FlowMeter(engine="python")
    python_batch.process_batch(stream)
    python_batch.flush_all()
    assert python_batch.records == all_at_once.records


def test_active_flows_drains_pending():
    vec = FlowMeter(engine="vectorized", batch_size=10_000)
    vec.process(_tcp(1, 2, 1000, 443, 0.0, payload=b"x"))
    assert vec.active_flows == 1  # the property is a drain point


def test_expire_drains_pending_first():
    vec = FlowMeter(engine="vectorized", batch_size=10_000, idle_timeout_s=1.0)
    oracle = FlowMeter(engine="python", idle_timeout_s=1.0)
    packet = _tcp(1, 2, 1000, 443, 0.0, payload=b"x")
    vec.process(packet)
    oracle.process(packet)
    assert vec.expire(100.0) == oracle.expire(100.0) == 1
    assert vec.records == oracle.records


# -- DPI frozen predicate ---------------------------------------------------


def test_observable_frozen_is_sticky_for_other_tcp():
    from repro.flowmeter.dpi import DpiEngine
    from repro.net.flowkey import Direction

    engine = DpiEngine(protocol="tcp", server_port=1234)
    assert not engine.observable_frozen
    engine.on_payload(Direction.CLIENT_TO_SERVER, b"not a known protocol", 0.0)
    assert engine.observable_frozen
    before = (engine.result.l7, engine.result.domain)
    # frozen means frozen: more payload changes nothing observable
    engine.on_payload(Direction.CLIENT_TO_SERVER, b"\x16\x03\x01\x00\x05aaaaa", 1.0)
    assert engine.observable_frozen
    assert (engine.result.l7, engine.result.domain) == before


def test_observable_frozen_never_lies(monkeypatch):
    """The exact property the flow kernel relies on: once an engine
    reports frozen, NO later payload may change its observables. Every
    ``on_payload`` call of a full mixed-protocol packet simulation is
    checked against a pre-call snapshot."""
    from repro.flowmeter import dpi as dpimod

    original = dpimod.DpiEngine.on_payload
    violations = []

    def snapshot(engine):
        r = engine.result
        return (
            r.l7,
            r.domain,
            r.dns_qname,
            r.dns_query_at,
            r.dns_response_at,
            r.dns_rcode,
            frozenset(engine._seen_handshake),
            engine._client_ccs_seen,
        )

    def checked(self, direction, payload, now):
        frozen_before = self.observable_frozen
        before = snapshot(self) if frozen_before else None
        original(self, direction, payload, now)
        if frozen_before:
            if snapshot(self) != before:
                violations.append((before, snapshot(self)))
            if not self.observable_frozen:
                violations.append(("frozen flag regressed", before))

    monkeypatch.setattr(dpimod.DpiEngine, "on_payload", checked)
    from repro.pipeline import run_mixed_protocol_simulation, run_packet_simulation

    run_packet_simulation(engine="python")
    run_mixed_protocol_simulation(n_each=1, engine="python")
    assert violations == []


# -- simulator batch scheduling ---------------------------------------------


def test_at_batch_matches_sequential_at():
    from repro.simnet.engine import Simulator

    tasks = [(0.5, "a"), (0.1, "b"), (0.5, "c"), (0.0, "d"), (0.3, "e")]
    seq_out, batch_out = [], []
    seq_sim = Simulator()
    for t, label in tasks:
        seq_sim.at(t, seq_out.append, label)
    seq_sim.run()

    batch_sim = Simulator()
    batch_sim.at_batch([(t, batch_out.append, (label,)) for t, label in tasks])
    batch_sim.run()
    assert batch_out == seq_out  # including the 0.5 tie broken by order


def test_schedule_batch_relative_delays():
    from repro.simnet.engine import Simulator

    sim = Simulator(start_time=10.0)
    out = []
    events = sim.schedule_batch([(1.0, out.append, ("x",)), (0.5, out.append, ("y",))])
    assert len(events) == 2
    events[0].cancel()
    sim.run()
    assert out == ["y"]


def test_at_batch_validates_before_mutating():
    from repro.simnet.engine import Simulator

    sim = Simulator(start_time=5.0)
    sim.at(6.0, lambda: None)
    with pytest.raises(ValueError):
        sim.at_batch([(7.0, lambda: None, ()), (1.0, lambda: None, ())])
    assert sim.pending == 1  # bad batch left the heap untouched


# -- persistent shard pool --------------------------------------------------


def test_shard_pool_matches_transient_generation():
    import multiprocessing

    from repro.parallel import ShardWorkerPool, generate_window_shards
    from repro.traffic.workload import WorkloadConfig, WorkloadGenerator

    generator = WorkloadGenerator(WorkloadConfig(n_customers=40, days=2, seed=5))
    shards = generator.shard_plan()
    reference = generate_window_shards(generator, shards, 2, 0, 0, 1, 1)

    worker_counts = [1]
    if "fork" in multiprocessing.get_all_start_methods():
        worker_counts.append(2)
    for n_workers in worker_counts:
        with ShardWorkerPool(generator, n_workers) as pool:
            frames = pool.generate_window(shards, 2, 0, 0, 1)
        assert len(frames) == len(reference)
        for got, want in zip(frames, reference):
            if want is None:
                assert got is None
                continue
            assert len(got) == len(want)
            for name in ("ts_start", "bytes_down", "ground_rtt_ms"):
                a, b = getattr(got, name), getattr(want, name)
                nan_ok = a.dtype.kind == "f"
                assert np.array_equal(a, b, equal_nan=nan_ok), name
