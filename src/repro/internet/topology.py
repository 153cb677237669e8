"""The assembled Internet model.

Glues geography, the latency model, service deployments and the
resolver catalog into the object the traffic generator and the
packet-level simulator query: "customer in country X asks resolver R
for service S — which server does it reach, what does the DNS exchange
cost, and what ground RTT will its TCP flow see?"
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.internet.geo import COUNTRIES, GROUND_STATION, SERVER_SITES, Location
from repro.internet.latency import LatencyModel
from repro.internet.resolvers import Resolver, ResolverCatalog
from repro.internet.servers import ServiceDeployment
from repro.net.inet import ip_to_int

#: Each serving site owns a /16 so server addresses are recognizably
#: clustered (the analysis only needs them to be stable & distinct).
_SITE_NETWORKS: Dict[str, str] = {
    "Milan-IX": "23.10.0.0",
    "Frankfurt": "23.11.0.0",
    "Amsterdam": "23.12.0.0",
    "Paris": "23.13.0.0",
    "London": "23.14.0.0",
    "Madrid": "23.15.0.0",
    "Marseille": "23.16.0.0",
    "Stockholm": "23.17.0.0",
    "US-East": "52.20.0.0",
    "US-West": "52.52.0.0",
    "Lagos": "197.50.0.0",
    "Kinshasa": "197.60.0.0",
    "Johannesburg": "197.70.0.0",
    "Nairobi": "197.80.0.0",
    "Beijing": "119.10.0.0",
    "Shanghai": "119.20.0.0",
    "Singapore": "119.30.0.0",
    "Mumbai": "119.40.0.0",
}


@dataclass
class ResolutionResult:
    """Outcome of one name resolution + server selection."""

    site: Location
    server_ip: int
    dns_response_ms: float
    resolver: Resolver


@dataclass
class InternetModel:
    """Topology facade used by generators and simulators."""

    latency: LatencyModel = field(default_factory=LatencyModel)
    resolvers: ResolverCatalog = field(default_factory=ResolverCatalog)
    ground_station: Location = GROUND_STATION
    deployments: Dict[str, ServiceDeployment] = field(default_factory=dict)

    def register_deployment(self, deployment: ServiceDeployment) -> None:
        """Make ``deployment`` resolvable by service name."""
        self.deployments[deployment.service] = deployment

    def deployment_for(self, service: str) -> ServiceDeployment:
        """Look up a registered deployment (raises KeyError)."""
        return self.deployments[service]

    def server_ip(self, site: Location, domain: str) -> int:
        """A stable server address for ``domain`` at ``site``."""
        base = ip_to_int(_SITE_NETWORKS.get(site.name, "203.0.0.0"))
        return base + (hash(domain) & 0xFFFF)

    def site_of_ip(self, address: int) -> Optional[str]:
        """Reverse lookup: which site does a server address belong to."""
        prefix = address & 0xFFFF0000
        for name, network in _SITE_NETWORKS.items():
            if ip_to_int(network) == prefix:
                return name
        return None

    def select_server(
        self,
        service: str,
        customer_country: Location,
        resolver: Resolver,
        rng: np.random.Generator,
        domain: Optional[str] = None,
    ) -> ResolutionResult:
        """Resolve ``service`` for a customer and pick the serving node.

        The perceived client location depends on the resolver (egress
        vs ECS country); anycast deployments ignore it entirely.
        """
        deployment = self.deployment_for(service)
        perceived = resolver.perceived_client(customer_country, rng)
        site = deployment.select_site(perceived, self.ground_station, self.latency)
        dns_ms = float(resolver.sample_response_ms(self.latency, rng, 1)[0])
        return ResolutionResult(
            site=site,
            server_ip=self.server_ip(site, domain or service),
            dns_response_ms=dns_ms,
            resolver=resolver,
        )

    def base_ground_rtt_ms(self, site: Location) -> float:
        """Median ground RTT to ``site`` (no jitter)."""
        return self.latency.base_rtt_ms(self.ground_station, site)

    @staticmethod
    def country(name: str) -> Location:
        """Subscriber-country lookup convenience."""
        return COUNTRIES[name]

    @staticmethod
    def site(name: str) -> Location:
        """Server-site lookup convenience."""
        return SERVER_SITES[name]
