"""Terrestrial latency model anchored at the ground station.

Figure 9 of the paper shows the *ground RTT* (ground station → server)
as a CDF with clear bumps: ~12 ms (peered CDNs), 15–17 ms and ~35 ms
(European CDN/cloud), ~95 ms (US East coast), ~180 ms (US West), and
300–400 ms (services hosted in the subscriber's original African
country, plus Chinese services popular in Congo).

We model RTT between two locations as::

    rtt_ms = base + 2 * distance_km / v_fiber * stretch(continents) + extra(site)

where ``stretch`` captures path inflation (submarine-cable detours for
Africa, transit for Asia) and ``extra`` captures peering/congestion
penalties of specific destinations. Samples add multiplicative
log-normal jitter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.internet.geo import Location, geodesic_km

#: Kilometres of fiber traversed per millisecond (2/3 c).
FIBER_KM_PER_MS = 200.0

#: Path-inflation factor per (continent, continent) pair, symmetric.
_DEFAULT_STRETCH: Dict[Tuple[str, str], float] = {
    ("Europe", "Europe"): 1.35,
    ("Europe", "NorthAmerica"): 1.25,
    ("Europe", "Africa"): 1.90,
    ("Europe", "Asia"): 1.55,
    ("Africa", "Africa"): 2.20,
    ("Africa", "NorthAmerica"): 1.60,
    ("Africa", "Asia"): 1.80,
    ("NorthAmerica", "NorthAmerica"): 1.40,
    ("Asia", "Asia"): 1.60,
    ("NorthAmerica", "Asia"): 1.50,
}

#: Destination-specific penalties (ms, added once per RTT): poor local
#: peering in central Africa, transit filtering for Chinese services,
#: the extra hop US-West paths take via the East coast.
_DEFAULT_SITE_EXTRA_MS: Dict[str, float] = {
    "Milan-IX": 2.0,
    "Frankfurt": 1.0,
    "Amsterdam": 2.0,
    "Paris": 1.5,
    "London": 2.0,
    "Madrid": 2.0,
    "Marseille": 1.5,
    "Stockholm": 3.5,
    "US-East": 2.0,
    "US-West": 52.0,
    "Lagos": 34.0,
    "Kinshasa": 200.0,
    "Johannesburg": 48.0,
    "Nairobi": 80.0,
    "Beijing": 112.0,
    "Shanghai": 118.0,
    "Singapore": 32.0,
    "Mumbai": 8.0,
}

#: First-hop/base latency (ms): LAN, queuing, server think time.
_BASE_MS = 3.0


@dataclass
class LatencyModel:
    """Deterministic base RTT plus log-normal jitter between locations."""

    base_ms: float = _BASE_MS
    stretch: Dict[Tuple[str, str], float] = field(default_factory=lambda: dict(_DEFAULT_STRETCH))
    site_extra_ms: Dict[str, float] = field(default_factory=lambda: dict(_DEFAULT_SITE_EXTRA_MS))
    jitter_sigma: float = 0.08
    """Sigma of the multiplicative log-normal jitter on RTT samples."""

    def stretch_factor(self, a: Location, b: Location) -> float:
        """Path-inflation factor between the continents of ``a``/``b``."""
        key = (a.continent, b.continent)
        if key in self.stretch:
            return self.stretch[key]
        rkey = (b.continent, a.continent)
        if rkey in self.stretch:
            return self.stretch[rkey]
        return 1.6  # conservative default for unlisted pairs

    def base_rtt_ms(self, a: Location, b: Location) -> float:
        """Median RTT between ``a`` and ``b`` (no jitter)."""
        distance = geodesic_km(a, b)
        propagation = 2.0 * distance / FIBER_KM_PER_MS * self.stretch_factor(a, b)
        extra = self.site_extra_ms.get(b.name, 0.0)
        return self.base_ms + propagation + extra

    def sample_rtt_ms(
        self, a: Location, b: Location, rng: np.random.Generator, n: int = 1
    ) -> np.ndarray:
        """``n`` jittered RTT samples between ``a`` and ``b``."""
        base = self.base_rtt_ms(a, b)
        jitter = rng.lognormal(mean=0.0, sigma=self.jitter_sigma, size=n)
        return base * jitter
