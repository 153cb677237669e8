"""The DNS resolver ecosystem (paper Section 6.3, Figure 10).

The paper observes 4 195 distinct resolvers; customers largely ignore
the operator resolver and use open ones — Google everywhere (86 % of
requests in Congo), a local Nigerian operator resolver whose responses
take ~120 ms because queries must travel Italy→Nigeria→Italy, and two
Chinese resolvers (Baidu ~356 ms, 114DNS ~110 ms) used by Chinese
communities in Africa.

Each resolver is modeled by its egress location (which sets the network
component of the response time observed at the ground station and, for
non-ECS resolvers, the location CDNs perceive the client at), a
processing time, a cache-hit ratio, and ECS support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.internet.geo import GROUND_STATION, SERVER_SITES, Location
from repro.internet.latency import LatencyModel
from repro.net.inet import ip_to_int


@dataclass(frozen=True)
class Resolver:
    """A DNS resolver as seen from the ground station."""

    name: str
    egress: Location
    address: int
    processing_ms: float
    supports_ecs: bool = False
    cache_hit_ratio: float = 0.85
    upstream_miss_ms: float = 90.0
    ecs_accuracy: float = 0.7
    """For ECS resolvers: probability the CDN perceives the client at the
    customer's real country (via the operator's per-country NAT pools)
    rather than at the resolver egress."""

    def sample_response_ms(
        self, latency: LatencyModel, rng: np.random.Generator, n: int = 1
    ) -> np.ndarray:
        """Response times observed at the ground station.

        Network RTT to the resolver egress, plus processing, plus the
        upstream recursion cost on cache misses.
        """
        network = latency.sample_rtt_ms(GROUND_STATION, self.egress, rng, n)
        processing = self.processing_ms * rng.lognormal(0.0, 0.25, size=n)
        miss = rng.random(n) >= self.cache_hit_ratio
        upstream = np.where(miss, self.upstream_miss_ms * rng.lognormal(0.0, 0.5, size=n), 0.0)
        return network + processing + upstream

    def perceived_client(
        self, customer_country: Location, rng: np.random.Generator
    ) -> Location:
        """Where CDN server-selection believes the client is."""
        if self.supports_ecs and rng.random() < self.ecs_accuracy:
            return customer_country
        return self.egress


def _site(name: str) -> Location:
    return SERVER_SITES[name]


#: The top-8 resolvers of Figure 10 plus the long-tail "Other" bucket.
#: Processing times are calibrated so median response times land on the
#: paper's right-hand column (3.98 / 21.98 / 19.97 / 119.98 / 17.99 /
#: 23.99 / 355.97 / 109.98 / 29.97 ms).
RESOLVERS: Dict[str, Resolver] = {
    resolver.name: resolver
    for resolver in (
        Resolver(
            "Operator-EU",
            GROUND_STATION,
            ip_to_int("185.11.0.53"),
            processing_ms=0.9,
            cache_hit_ratio=0.93,
        ),
        Resolver(
            "Google",
            _site("Milan-IX"),
            ip_to_int("8.8.8.8"),
            processing_ms=9.0,
            supports_ecs=True,
            cache_hit_ratio=0.92,
        ),
        Resolver("CloudFlare", _site("Milan-IX"), ip_to_int("1.1.1.1"), processing_ms=7.0),
        Resolver("Nigerian", _site("Lagos"), ip_to_int("197.210.252.38"), processing_ms=6.0),
        Resolver("Open DNS", _site("Milan-IX"), ip_to_int("208.67.222.222"), processing_ms=5.0),
        Resolver("Level3", _site("Frankfurt"), ip_to_int("4.2.2.1"), processing_ms=5.5),
        Resolver("Baidu", _site("Beijing"), ip_to_int("180.76.76.76"), processing_ms=110.0),
        Resolver("114DNS", _site("Mumbai"), ip_to_int("114.114.114.114"), processing_ms=5.0),
        Resolver("Other", _site("Frankfurt"), ip_to_int("151.99.125.1"), processing_ms=11.0),
    )
}


#: Per-country resolver usage shares (percent of DNS traffic) — the
#: measured adoption matrix of Figure 10, used as a *population input*:
#: each synthetic customer draws its resolver preference from it.
RESOLVER_SHARES: Dict[str, Dict[str, float]] = {
    "Congo": {
        "Operator-EU": 0.87, "Google": 85.68, "CloudFlare": 3.02, "Nigerian": 0.00,
        "Open DNS": 1.22, "Level3": 0.45, "Baidu": 0.68, "114DNS": 2.97, "Other": 5.11,
    },
    "Nigeria": {
        "Operator-EU": 9.10, "Google": 50.69, "CloudFlare": 2.54, "Nigerian": 11.84,
        "Open DNS": 4.00, "Level3": 7.63, "Baidu": 0.32, "114DNS": 3.43, "Other": 10.46,
    },
    "South Africa": {
        "Operator-EU": 1.87, "Google": 63.47, "CloudFlare": 10.36, "Nigerian": 6.32,
        "Open DNS": 0.65, "Level3": 0.09, "Baidu": 0.22, "114DNS": 1.64, "Other": 15.38,
    },
    "Ireland": {
        "Operator-EU": 43.75, "Google": 38.49, "CloudFlare": 2.03, "Nigerian": 0.00,
        "Open DNS": 0.49, "Level3": 0.00, "Baidu": 0.12, "114DNS": 0.05, "Other": 15.07,
    },
    "Spain": {
        "Operator-EU": 28.95, "Google": 61.27, "CloudFlare": 2.05, "Nigerian": 0.00,
        "Open DNS": 0.72, "Level3": 0.00, "Baidu": 0.11, "114DNS": 0.03, "Other": 6.87,
    },
    "UK": {
        "Operator-EU": 38.10, "Google": 34.67, "CloudFlare": 6.04, "Nigerian": 0.00,
        "Open DNS": 6.97, "Level3": 0.49, "Baidu": 0.05, "114DNS": 0.01, "Other": 13.67,
    },
}

#: Fallback mixes for countries not detailed in Figure 10.
_DEFAULT_EUROPE_SHARES = {
    "Operator-EU": 35.0, "Google": 45.0, "CloudFlare": 5.0, "Open DNS": 3.0, "Other": 12.0,
}
_DEFAULT_AFRICA_SHARES = {
    "Operator-EU": 3.0, "Google": 70.0, "CloudFlare": 5.0, "Open DNS": 2.0,
    "114DNS": 2.0, "Baidu": 0.5, "Other": 17.5,
}


@dataclass
class ResolverCatalog:
    """Per-country resolver choice."""

    resolvers: Dict[str, Resolver] = field(default_factory=lambda: dict(RESOLVERS))
    shares: Dict[str, Dict[str, float]] = field(default_factory=lambda: {
        country: dict(mix) for country, mix in RESOLVER_SHARES.items()
    })

    def mix_for(self, country_name: str, continent: str) -> Dict[str, float]:
        """The resolver share mix for a country (with fallback)."""
        forced = getattr(self, "_forced_name", None)
        if forced is not None:
            return {forced: 100.0}
        if country_name in self.shares:
            return self.shares[country_name]
        if continent == "Africa":
            return _DEFAULT_AFRICA_SHARES
        return _DEFAULT_EUROPE_SHARES

    def names_and_weights(self, country_name: str, continent: str) -> Tuple[List[str], np.ndarray]:
        """Resolver names and normalized choice probabilities."""
        mix = self.mix_for(country_name, continent)
        names = list(mix)
        weights = np.array([mix[name] for name in names], dtype=float)
        total = weights.sum()
        if total <= 0:
            raise ValueError(f"empty resolver mix for {country_name}")
        return names, weights / total

    def choose(
        self, country_name: str, continent: str, rng: np.random.Generator
    ) -> Resolver:
        """Draw one resolver according to the country's mix."""
        names, weights = self.names_and_weights(country_name, continent)
        return self.resolvers[names[rng.choice(len(names), p=weights)]]

    @classmethod
    def forced(cls, resolver_name: str) -> "ResolverCatalog":
        """A catalog where every customer uses ``resolver_name``.

        Implements the mitigation of Section 6.4: "force the use of the
        SatCom operator's resolver".
        """
        if resolver_name not in RESOLVERS:
            raise KeyError(resolver_name)
        shares = {
            country: {resolver_name: 100.0} for country in RESOLVER_SHARES
        }
        catalog = cls(shares=shares)
        catalog._forced_name = resolver_name
        return catalog

    def by_address(self, address: int) -> Optional[Resolver]:
        """The resolver listening on ``address``, or None."""
        for resolver in self.resolvers.values():
            if resolver.address == address:
                return resolver
        return None
