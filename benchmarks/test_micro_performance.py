"""Micro-benchmarks of the hot paths (probe, generator, classifier,
fleet merge, serve). Not paper experiments — performance engineering
guardrails for the library itself."""

import pytest

from repro.analysis.classify import ServiceClassifier
from repro.flowmeter.meter import FlowMeter
from repro.net.packet import IPProtocol, Packet, TCPFlags
from repro.scenario import get_scenario


def _packet_stream(n_flows=200, pkts_per_flow=50):
    packets = []
    for flow in range(n_flows):
        src = 0x0A000000 + flow
        port = 40000 + flow
        packets.append(Packet(
            src_ip=src, dst_ip=0x17000001, src_port=port, dst_port=443,
            protocol=IPProtocol.TCP, flags=TCPFlags.SYN, timestamp=0.0,
        ))
        for k in range(pkts_per_flow):
            packets.append(Packet(
                src_ip=src, dst_ip=0x17000001, src_port=port, dst_port=443,
                protocol=IPProtocol.TCP, flags=TCPFlags.ACK | TCPFlags.PSH,
                seq=1 + k * 100, ack=1, payload=b"z" * 100,
                timestamp=0.001 * k,
            ))
    return packets


@pytest.mark.benchmark(group="micro")
def test_micro_flowmeter_throughput(benchmark):
    packets = _packet_stream()

    def run():
        meter = FlowMeter()
        for packet in packets:
            meter.process(packet)
        meter.flush_all()
        return meter

    meter = benchmark(run)
    assert len(meter.records) == 200
    # keep an eye on per-packet cost: this path must stay >50k pkts/s
    assert meter.packets_processed == len(packets)


@pytest.mark.benchmark(group="micro")
def test_micro_simnet_at_batch(benchmark):
    from repro.simnet.engine import Simulator

    def run():
        sim = Simulator()
        hits = []
        sim.at_batch(
            [(float(t), hits.append, (t,)) for t in range(20_000)]
        )
        sim.run()
        return hits

    hits = benchmark(run)
    assert len(hits) == 20_000


@pytest.mark.benchmark(group="micro")
def test_micro_generator_throughput(benchmark):
    scenario = get_scenario("baseline-geo").with_overrides(
        {"population.n_customers": 150, "workload.days": 2, "workload.seed": 9}
    )

    def run():
        return scenario.build_generator().generate()

    frame = benchmark(run)
    assert len(frame) > 50_000


@pytest.mark.benchmark(group="micro")
def test_micro_classifier_pool(benchmark, frame):
    classifier = ServiceClassifier()

    def run():
        fresh = ServiceClassifier()
        return fresh.classify_pool(frame.domains)

    labels, names = benchmark(run)
    assert len(labels) == len(frame.domains)


@pytest.fixture(scope="module")
def fleet_partition_dirs(tmp_path_factory):
    """Four completed partition captures of a small fleet scenario."""
    from repro.fleet import plan_partitions, run_partition

    scenario = get_scenario("baseline-geo").with_overrides({
        "population.n_customers": 96,
        "workload.days": 2,
        "workload.n_shards": 4,
        "execution.compress": False,
    })
    root = tmp_path_factory.mktemp("fleet-bench")
    directories = []
    for spec in plan_partitions(scenario, partitions=4).partitions:
        directory = root / spec.name
        run_partition(scenario, spec, directory)
        directories.append(directory)
    return directories


@pytest.mark.benchmark(group="micro")
def test_micro_fleet_merge(benchmark, fleet_partition_dirs):
    """The fleet reduce step: 4 partitions. Each round loads and
    verifies the partition states, merges them, and folds the ordered
    banks again from a projected read of every window; nothing is
    cached between rounds."""
    from repro.fleet import merge_partition_captures

    rollup = benchmark(merge_partition_captures, fleet_partition_dirs)
    assert rollup.state_digest()


@pytest.fixture(scope="module")
def serve_endpoint(tmp_path_factory):
    """A finished small capture behind a live ReportServer."""
    from repro.serve import ServerThread, SnapshotHub, snapshot_from_capture
    from repro.stream import StreamConfig, run_stream_capture
    from repro.traffic.workload import WorkloadConfig

    capture_dir = tmp_path_factory.mktemp("serve-bench") / "cap"
    config = StreamConfig(
        workload=WorkloadConfig(n_customers=48, days=2, seed=7, n_workers=1),
        window_days=1,
        compress=False,
    )
    run_stream_capture(config, capture_dir)
    hub = SnapshotHub()
    hub.publish(snapshot_from_capture(capture_dir))
    server = ServerThread(hub)
    server.start()
    yield server
    server.stop()


@pytest.mark.benchmark(group="micro")
def test_micro_serve_request(benchmark, serve_endpoint):
    """One full /reports/fig2 HTTP exchange against a warm snapshot —
    connection setup, registry dispatch, rollup render, response. Guards
    the serve hot path (a regression here multiplies across every
    dashboard poll of a live capture)."""
    import http.client

    def fetch():
        conn = http.client.HTTPConnection(
            serve_endpoint.host, serve_endpoint.port, timeout=10
        )
        try:
            conn.request("GET", "/reports/fig2")
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    status, body = benchmark(fetch)
    assert status == 200
    assert b"fig2" in body or b"Country" in body
