"""Server deployments: CDN footprints and selection policies.

Section 6.4 of the paper shows how server selection breaks for SatCom
customers: all traffic egresses in Italy, yet CDNs and resolvers often
*perceive* the client elsewhere — at the resolver's location (classic
DNS-based mapping without ECS), or in the customer's real country (when
EDNS-Client-Subnet carries the operator's per-country NAT pool prefix).
Anycast CDNs are immune because routing from the Italian egress picks
the nearest node regardless of DNS.

We model three policies and a set of footprints wide enough to create
the paper's ground-RTT bumps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.internet.geo import SERVER_SITES, Location, geodesic_km
from repro.internet.latency import LatencyModel


class SelectionPolicy(enum.Enum):
    """How a deployment maps a client to a serving node."""

    DNS_RESOLVER_GEO = "dns-resolver-geo"
    """Node nearest to the *resolver egress* (no ECS)."""

    ECS = "ecs"
    """Node nearest to the geolocation of the client prefix carried in
    EDNS-Client-Subnet — for SatCom customers that is the operator's
    per-country NAT pool, i.e. the customer's *home country*, conflicting
    with the actual routing through Italy."""

    ANYCAST = "anycast"
    """Node nearest (in RTT from the ground station) to the Italian
    egress — DNS-independent."""

    ORIGIN = "origin"
    """A single fixed site (no CDN)."""


@dataclass(frozen=True)
class CdnFootprint:
    """A named set of candidate serving sites."""

    name: str
    site_names: tuple

    def sites(self) -> List[Location]:
        """Resolve site names to locations."""
        return [SERVER_SITES[name] for name in self.site_names]


#: Footprints used by the service catalog. Site names refer to
#: :data:`repro.internet.geo.SERVER_SITES`.
FOOTPRINTS: Dict[str, CdnFootprint] = {
    footprint.name: footprint
    for footprint in (
        # Hyperscale CDN with African presence (Google/Meta class).
        CdnFootprint(
            "global-cdn",
            (
                "Milan-IX",
                "Frankfurt",
                "Amsterdam",
                "Paris",
                "London",
                "Madrid",
                "Marseille",
                "US-East",
                "US-West",
                "Lagos",
                "Johannesburg",
                "Nairobi",
                "Singapore",
                "Mumbai",
            ),
        ),
        # CDN with European + US presence only (many mid-size players).
        CdnFootprint(
            "euro-us-cdn",
            ("Milan-IX", "Frankfurt", "Amsterdam", "Paris", "London", "Madrid", "US-East", "US-West"),
        ),
        # Apple/Akamai class: Europe + US + Asia, no African nodes.
        CdnFootprint(
            "apple-cdn",
            ("Milan-IX", "Frankfurt", "Paris", "London", "Madrid", "US-East", "US-West",
             "Singapore", "Mumbai"),
        ),
        # Peered CDN: nodes directly peered with the SatCom operator —
        # the ~12 ms leftmost bump of Figure 9.
        CdnFootprint("peered-cdn", ("Milan-IX", "Frankfurt")),
        # Video CDN with deep European deployment (Netflix OCA class).
        CdnFootprint(
            "video-cdn",
            ("Milan-IX", "Frankfurt", "Amsterdam", "Paris", "London", "Madrid", "Marseille", "Johannesburg"),
        ),
        # US cloud regions (the 95 / 180 ms bumps).
        CdnFootprint("us-cloud-east", ("US-East",)),
        CdnFootprint("us-cloud-west", ("US-West",)),
        # European cloud/hosting (the ~35 ms bump).
        CdnFootprint("euro-cloud", ("Stockholm", "Amsterdam", "London")),
        # Services hosted only in Africa (local news, banking, portals).
        CdnFootprint("africa-local", ("Lagos", "Kinshasa", "Johannesburg", "Nairobi")),
        # Chinese platforms (WeChat, Baidu properties, QQ, NetEase).
        CdnFootprint("china-cloud", ("Beijing", "Shanghai")),
        # Asian CDN edge (TikTok class: Asian core, some EU edges).
        CdnFootprint("asia-cdn", ("Singapore", "Mumbai", "Frankfurt", "Marseille")),
    )
}


@dataclass
class ServiceDeployment:
    """How one service's servers are deployed and selected."""

    service: str
    footprint: CdnFootprint
    policy: SelectionPolicy

    def select_site(
        self,
        perceived_client: Location,
        ground_station: Location,
        latency: Optional[LatencyModel] = None,
    ) -> Location:
        """Pick the serving node for a client perceived at
        ``perceived_client``.

        ``DNS_RESOLVER_GEO``/``ECS`` deployments choose the
        geographically nearest node to the perceived client;
        ``ANYCAST`` chooses the lowest-RTT node from the ground
        station; ``ORIGIN`` always returns the single site.
        """
        sites = self.footprint.sites()
        if self.policy == SelectionPolicy.ORIGIN or len(sites) == 1:
            return sites[0]
        if self.policy == SelectionPolicy.ANYCAST:
            model = latency or LatencyModel()
            return min(sites, key=lambda s: model.base_rtt_ms(ground_station, s))
        return min(sites, key=lambda s: geodesic_km(perceived_client, s))


def deployment(service: str, footprint_name: str, policy: SelectionPolicy) -> ServiceDeployment:
    """Convenience constructor resolving a footprint by name."""
    return ServiceDeployment(service=service, footprint=FOOTPRINTS[footprint_name], policy=policy)
