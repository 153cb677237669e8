"""End-to-end orchestration.

Two entry points mirror the reproduction's two fidelity levels:

* :func:`run_packet_simulation` — a packet-level run of the full
  Figure 1 path (clients ↔ CPE PEP ↔ satellite ↔ ground-station PEP ↔
  servers/resolvers) with the flow meter tapping the ground station.
  Validates the measurement methodology against ground truth.
* :func:`generate_flow_dataset` — the scaled, flow-level synthetic
  capture every table/figure benchmark consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.dataset import FlowFrame
from repro.flowmeter.meter import FlowMeter
from repro.flowmeter.records import FlowRecord
from repro.internet.resolvers import RESOLVERS, Resolver, ResolverCatalog
from repro.internet.servers import deployment
from repro.internet.topology import InternetModel
from repro.net.cryptopan import PrefixPreservingAnonymizer
from repro.satcom.apps import TlsClientApp, TlsServerApp
from repro.satcom.delay_model import SatelliteRttModel
from repro.satcom.network import CustomerHost, SatComPacketNetwork
from repro.simnet.engine import Simulator
from repro.traffic.services import SERVICES
from repro.traffic.subscribers import Population, synthesize_population
from repro.traffic.workload import WorkloadConfig, WorkloadGenerator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scenario import Scenario


@dataclass
class PacketSimConfig:
    """Configuration of the packet-level validation run."""

    countries: Sequence[str] = ("Spain", "Congo", "Ireland", "Nigeria")
    flows_per_customer: int = 6
    response_bytes: int = 120_000
    hour_utc: float = 20.0
    seed: int = 11
    resolver_names: Sequence[str] = ("Operator-EU", "Google", "Nigerian")
    anonymize: bool = True
    sim_horizon_s: float = 600.0


@dataclass
class PacketSimResult:
    """Everything a validation needs: records + ground truth."""

    records: List[FlowRecord]
    clients: List[TlsClientApp]
    client_country: Dict[int, str]
    dns_ground_truth_ms: List[Tuple[str, float]]
    meter: FlowMeter
    network: SatComPacketNetwork

    @property
    def tls_records(self) -> List[FlowRecord]:
        return [r for r in self.records if r.l7.value == "tcp/https"]

    @property
    def dns_records(self) -> List[FlowRecord]:
        return [r for r in self.records if r.l7.value == "udp/dns"]


def run_packet_simulation(
    config: Optional[PacketSimConfig] = None,
    scenario: Optional["Scenario"] = None,
) -> PacketSimResult:
    """Drive TLS downloads and DNS lookups through the packet network.

    Each customer opens ``flows_per_customer`` TLS connections (staggered)
    to a CDN server plus one DNS query; the flow meter observes the
    ground station. The result carries app-side ground truth so tests
    can check the probe's estimators. ``scenario`` selects which
    satellite model the packets traverse (default: ``baseline-geo``).
    """
    config = config or PacketSimConfig()
    sim = Simulator()
    internet = InternetModel()
    for svc in SERVICES.values():
        internet.register_deployment(deployment(svc.name, svc.footprint, svc.policy))
    meter = FlowMeter(
        anonymizer=PrefixPreservingAnonymizer(b"repro-key") if config.anonymize else None,
    )
    rng = np.random.default_rng(config.seed)
    network = SatComPacketNetwork(
        sim,
        internet,
        delay_source=scenario.build_delay_source() if scenario is not None else None,
        meter=meter,
        rng=rng,
        hour_utc=config.hour_utc,
    )

    server = network.add_server(
        "edge.example-cdn.com",
        "Milan-IX",
        app_factory=lambda ep: TlsServerApp(
            send=ep.send, close=ep.close, response_bytes=config.response_bytes
        ),
    )
    resolvers = [RESOLVERS[name] for name in config.resolver_names]
    for resolver in resolvers:
        network.add_resolver(resolver, answer_fn=lambda _qname: server.ip)

    clients: List[TlsClientApp] = []
    client_country: Dict[int, str] = {}
    dns_truth: List[Tuple[str, float]] = []

    def launch_tls(customer: CustomerHost) -> None:
        app = TlsClientApp(
            sim,
            "edge.example-cdn.com",
            expected_response_bytes=config.response_bytes,
            compute_delay_s=float(rng.uniform(0.005, 0.04)),
        )
        socket = customer.open_tcp(server.ip, 443, on_data=app.on_data)
        app.start(socket.send, socket.close)
        clients.append(app)

    def launch_dns(customer: CustomerHost, resolver: Resolver) -> None:
        from repro.protocols import dns as dnsproto

        sent_at = sim.now

        def on_reply(_payload: bytes, _now: float) -> None:
            dns_truth.append((resolver.name, (sim.now - sent_at) * 1000.0))

        query = dnsproto.encode_query(int(rng.integers(1, 60000)), "edge.example-cdn.com")
        customer.send_udp(resolver.address, 53, query, on_reply=on_reply)

    for country in config.countries:
        customer = network.add_customer(country)
        client_country[customer.public_ip] = country
        for i in range(config.flows_per_customer):
            sim.schedule(float(rng.uniform(0.0, 30.0)), launch_tls, customer)
        resolver = resolvers[int(rng.integers(len(resolvers)))]
        sim.schedule(float(rng.uniform(0.0, 5.0)), launch_dns, customer, resolver)

    sim.run(until=config.sim_horizon_s)
    meter.flush_all()
    return PacketSimResult(
        records=meter.records,
        clients=clients,
        client_country=client_country,
        dns_ground_truth_ms=dns_truth,
        meter=meter,
        network=network,
    )


@dataclass
class MixedSimResult:
    """Outcome of the mixed-protocol packet run."""

    records: List[FlowRecord]
    tls13_clients: List[object]
    http_clients: List[object]
    quic_clients: List[object]
    rtp_sessions: List[object]
    meter: FlowMeter

    def records_of(self, l7_value: str) -> List[FlowRecord]:
        return [r for r in self.records if r.l7.value == l7_value]


def run_mixed_protocol_simulation(
    seed: int = 21,
    country: str = "Spain",
    n_each: int = 3,
) -> MixedSimResult:
    """Drive TLS 1.3, plain HTTP, QUIC and RTP through the packet path.

    Exercises every DPI branch of the probe end to end: SNI from TLS 1.3
    (satellite RTT via the client CCS), Host from HTTP, SNI from the
    QUIC Initial, and RTP detection — all through the PEP/tunnel split
    of Figure 1.
    """
    from repro.satcom.apps import (
        HttpClientApp,
        HttpServerApp,
        QuicClientApp,
        RtpSessionApp,
        TlsClientApp,
        TlsServerApp,
    )
    from repro.satcom.network import quic_server_handler, rtp_echo_handler

    sim = Simulator()
    internet = InternetModel()
    for svc in SERVICES.values():
        internet.register_deployment(deployment(svc.name, svc.footprint, svc.policy))
    meter = FlowMeter()
    rng = np.random.default_rng(seed)
    network = SatComPacketNetwork(sim, internet, meter=meter, rng=rng, hour_utc=15.0)

    tls_server = network.add_server(
        "modern.example-cdn.com",
        "Milan-IX",
        app_factory=lambda ep: TlsServerApp(
            send=ep.send, close=ep.close, response_bytes=80_000, tls13=True
        ),
    )
    http_server = network.add_server(
        "downloads.example-http.com",
        "Frankfurt",
        app_factory=lambda ep: HttpServerApp(
            send=ep.send, close=ep.close, response_bytes=40_000
        ),
    )
    quic_server = network.add_udp_server(
        "video.example-quic.com", "Milan-IX", quic_server_handler(response_bytes=50_000)
    )
    rtp_server = network.add_udp_server(
        "turn1.voip-relay.net", "Frankfurt", rtp_echo_handler()
    )

    tls13_clients: List[TlsClientApp] = []
    http_clients: List[HttpClientApp] = []
    quic_clients: List[QuicClientApp] = []
    rtp_sessions: List[RtpSessionApp] = []

    for i in range(n_each):
        customer = network.add_customer(country)

        tls_app = TlsClientApp(
            sim, "modern.example-cdn.com", expected_response_bytes=80_000, tls13=True
        )
        socket = customer.open_tcp(tls_server.ip, 443, on_data=tls_app.on_data)
        sim.schedule(0.1 * i, tls_app.start, socket.send, socket.close)
        tls13_clients.append(tls_app)

        http_app = HttpClientApp(sim, "downloads.example-http.com", "/update.bin")
        http_socket = customer.open_tcp(http_server.ip, 80, on_data=http_app.on_data)
        sim.schedule(0.2 + 0.1 * i, http_app.start, http_socket.send, http_socket.close)
        http_clients.append(http_app)

        quic_app = QuicClientApp(sim, "video.example-quic.com", expected_response_bytes=50_000)

        def launch_quic(c=customer, app=quic_app):
            c.send_udp(quic_server.ip, 443, app.initial_datagram(), on_reply=app.on_datagram)

        sim.schedule(0.4 + 0.1 * i, launch_quic)
        quic_clients.append(quic_app)

        rtp_app = RtpSessionApp(sim, n_packets=15)

        def launch_rtp(c=customer, app=rtp_app):
            sender = c.open_udp(rtp_server.ip, 40000, on_reply=app.on_datagram)
            app.start(sender)

        sim.schedule(0.6 + 0.1 * i, launch_rtp)
        rtp_sessions.append(rtp_app)

    sim.run(until=400.0)
    meter.flush_all()
    return MixedSimResult(
        records=meter.records,
        tls13_clients=tls13_clients,
        http_clients=http_clients,
        quic_clients=quic_clients,
        rtp_sessions=rtp_sessions,
        meter=meter,
    )


def generate_flow_dataset(
    config: Optional[WorkloadConfig] = None,
    rtt_model: Optional[SatelliteRttModel] = None,
    internet: Optional[InternetModel] = None,
    population: Optional[Population] = None,
    cache=None,
    scenario: Optional["Scenario"] = None,
) -> Tuple[FlowFrame, WorkloadGenerator]:
    """Generate the flow-level synthetic capture.

    ``scenario`` builds the whole generator (models, plan mix, workload)
    from one :class:`~repro.scenario.Scenario`; it is mutually
    exclusive with ``config``/``rtt_model``/``internet``/``population``
    and caches by the scenario digest.

    ``cache`` may be ``True`` (default cache dir), a directory path, or
    a :class:`~repro.cache.CaptureCache`; the capture is then loaded
    from — or generated once and stored into — the content-keyed cache
    (see :mod:`repro.cache`). In the legacy-config form caching only
    engages when the generator is built purely from ``config``: custom
    ``rtt_model`` / ``internet`` / ``population`` objects are not part
    of the cache key, so passing any of them bypasses the cache rather
    than risking a wrong hit.
    """
    from repro.cache import resolve_cache

    capture_cache = resolve_cache(cache)
    if scenario is not None:
        if any(o is not None for o in (config, rtt_model, internet, population)):
            raise ValueError(
                "scenario= is mutually exclusive with "
                "config/rtt_model/internet/population"
            )
        fault_plan = scenario.fault_plan()
        if capture_cache is not None and fault_plan is not None:
            from repro.cache import CaptureCache
            from repro.faults import FaultInjector

            capture_cache = CaptureCache(
                directory=capture_cache.directory,
                injector=FaultInjector(fault_plan),
            )
        if capture_cache is not None:
            cached = capture_cache.load(scenario)
            if cached is not None:
                return cached, scenario.build_generator()
        generator = scenario.build_generator()
        frame = generator.generate()
        if capture_cache is not None:
            capture_cache.store(scenario, frame)
        return frame, generator
    if capture_cache is not None and any(
        override is not None for override in (rtt_model, internet, population)
    ):
        capture_cache = None
    resolved_config = config or WorkloadConfig()
    if capture_cache is not None:
        cached = capture_cache.load(resolved_config)
        if cached is not None:
            generator = WorkloadGenerator(config=resolved_config)
            return cached, generator
    generator = WorkloadGenerator(
        config=resolved_config,
        internet=internet,
        rtt_model=rtt_model,
        population=population,
    )
    frame = generator.generate()
    if capture_cache is not None:
        capture_cache.store(resolved_config, frame)
    return frame, generator


def generate_with_forced_resolver(
    resolver_name: str, config: Optional[WorkloadConfig] = None
) -> Tuple[FlowFrame, WorkloadGenerator]:
    """Ablation of Section 6.4: every customer on one resolver."""
    from repro.scenario import get_scenario

    config = config or WorkloadConfig()
    rng = np.random.default_rng(config.seed)
    rtt_model = get_scenario("baseline-geo").build_rtt_model()
    population = synthesize_population(
        config.n_customers,
        rng,
        countries=config.countries,
        beam_map=rtt_model.beam_map,
        resolver_catalog=ResolverCatalog.forced(resolver_name),
    )
    return generate_flow_dataset(config, rtt_model=rtt_model, population=population)
