"""Per-country population profiles.

Encodes the population properties the paper *measured* and we use as
generator inputs (see DESIGN.md §2): customer share per country
(Figure 2), subscriber-type mix (idle CPE / household / community WiFi
AP — Sections 4–5), local-time diurnal activity (Figure 4), the
service-adoption matrix (Figure 6), per-category usage intensity
(Figure 7), and the resolver mix (Figure 10, via
:mod:`repro.internet.resolvers`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from repro.internet.geo import COUNTRIES, Location
from repro.traffic.services import SERVICES, ServiceCategory

# --------------------------------------------------------------------------
# Customer share per country (percent of the subscriber base, Figure 2).
# --------------------------------------------------------------------------

CUSTOMER_SHARE_PCT: Dict[str, float] = {
    "Congo": 20.0,
    "Spain": 16.0,
    "Nigeria": 11.0,
    "UK": 8.5,
    "South Africa": 7.5,
    "Ireland": 6.5,
    "Germany": 6.0,
    "France": 5.0,
    "Italy": 4.5,
    "Portugal": 3.5,
}
_remaining = [name for name in COUNTRIES if name not in CUSTOMER_SHARE_PCT]
_leftover = 100.0 - sum(CUSTOMER_SHARE_PCT.values())
for _name in _remaining:
    CUSTOMER_SHARE_PCT[_name] = _leftover / len(_remaining)

TOP_COUNTRIES: Tuple[str, ...] = ("Congo", "Nigeria", "South Africa", "Ireland", "Spain", "UK")
"""The three African + three European countries the paper drills into."""


# --------------------------------------------------------------------------
# Subscriber-type mixes. "Idle" CPEs (second homes, Section 4) dominate in
# Europe; community WiFi APs / internet cafés are an African phenomenon
# (Section 5).
# --------------------------------------------------------------------------

#: (idle, household, community) probabilities.
TYPE_MIX: Dict[str, Tuple[float, float, float]] = {
    "Congo": (0.06, 0.50, 0.44),
    "Nigeria": (0.08, 0.55, 0.37),
    "South Africa": (0.12, 0.60, 0.28),
    "Ireland": (0.55, 0.44, 0.01),
    "Spain": (0.58, 0.41, 0.01),
    "UK": (0.53, 0.46, 0.01),
}
_TYPE_MIX_DEFAULT = {"Europe": (0.55, 0.44, 0.01), "Africa": (0.08, 0.55, 0.37)}


# --------------------------------------------------------------------------
# Figure 6: percentage of customers accessing each service daily.
# --------------------------------------------------------------------------

FIG6_ADOPTION_PCT: Dict[str, Dict[str, float]] = {
    "Google":     {"Congo": 62.96, "Nigeria": 61.26, "South Africa": 64.72, "Ireland": 68.58, "Spain": 68.30, "UK": 65.48},
    "Whatsapp":   {"Congo": 61.22, "Nigeria": 51.18, "South Africa": 62.88, "Ireland": 59.59, "Spain": 63.82, "UK": 53.75},
    "Snapchat":   {"Congo": 33.93, "Nigeria": 28.90, "South Africa": 19.14, "Ireland": 38.52, "Spain": 12.33, "UK": 28.50},
    "Wechat":     {"Congo": 6.42, "Nigeria": 3.55, "South Africa": 1.11, "Ireland": 0.49, "Spain": 0.06, "UK": 0.41},
    "Telegram":   {"Congo": 1.83, "Nigeria": 3.17, "South Africa": 1.28, "Ireland": 0.53, "Spain": 1.75, "UK": 0.29},
    "Instagram":  {"Congo": 48.81, "Nigeria": 41.04, "South Africa": 40.67, "Ireland": 48.53, "Spain": 45.59, "UK": 40.43},
    "Tiktok":     {"Congo": 41.56, "Nigeria": 31.99, "South Africa": 36.31, "Ireland": 40.11, "Spain": 31.89, "UK": 36.53},
    "Netflix":    {"Congo": 17.34, "Nigeria": 17.84, "South Africa": 38.91, "Ireland": 50.91, "Spain": 39.20, "UK": 46.41},
    "Primevideo": {"Congo": 3.90, "Nigeria": 3.77, "South Africa": 8.42, "Ireland": 21.30, "Spain": 22.78, "UK": 28.21},
    "Sky":        {"Congo": 15.71, "Nigeria": 7.86, "South Africa": 7.26, "Ireland": 27.68, "Spain": 6.04, "UK": 28.37},
    "Spotify":    {"Congo": 37.78, "Nigeria": 30.31, "South Africa": 33.19, "Ireland": 46.79, "Spain": 45.20, "UK": 39.73},
    "Dropbox":    {"Congo": 11.50, "Nigeria": 9.22, "South Africa": 16.57, "Ireland": 10.39, "Spain": 9.34, "UK": 16.81},
}

#: Daily-use probabilities (percent) for services the paper does not list
#: in Figure 6, as (Europe default, Africa default).
_DEFAULT_ADOPTION_PCT: Dict[str, Tuple[float, float]] = {
    "Bing": (20.0, 10.0),
    "Yahoo": (12.0, 8.0),
    "Duckduck": (5.0, 2.0),
    "Skype": (10.0, 6.0),
    "Facebook": (65.0, 72.0),
    "Twitter": (25.0, 15.0),
    "Linkedin": (15.0, 8.0),
    "Youtube": (70.0, 75.0),
    "Office365": (30.0, 12.0),
    "Gsuite": (25.0, 15.0),
    "AppleServices": (45.0, 15.0),
    "GoogleAPIs": (85.0, 82.0),
    "Microsoft": (60.0, 25.0),
    "WindowsUpdate": (35.0, 10.0),
    "AdsTracking": (90.0, 85.0),
    "GenericWeb": (95.0, 95.0),
    "ChinesePlatforms": (1.0, 4.0),
    "ScooperNews": (0.3, 25.0),
    "Shalltry": (0.2, 18.0),
    "AfricanLocal": (0.5, 40.0),
    "UsSaaS": (55.0, 22.0),
    "UsWestApps": (24.0, 9.0),
    "Vpn": (6.0, 2.0),
    "RtpCalls": (10.0, 12.0),
    "OtherUdp": (60.0, 55.0),
}

#: Country-specific overrides for unlisted services: German VPN usage
#: (Figure 3's 35 % other-TCP), Chinese platforms in Congo (Section 6.3),
#: Sky driving HTTP in Ireland/U.K. (already in Figure 6).
_ADOPTION_OVERRIDES: Dict[str, Dict[str, float]] = {
    "Vpn": {"Germany": 32.0, "France": 9.0},
    "ChinesePlatforms": {"Congo": 9.0, "Nigeria": 4.0, "South Africa": 2.5},
    "WindowsUpdate": {"Ireland": 55.0, "UK": 55.0},
    "ScooperNews": {"Congo": 30.0, "Nigeria": 28.0},
    "AfricanLocal": {"Congo": 45.0, "Nigeria": 42.0, "South Africa": 35.0},
}


# --------------------------------------------------------------------------
# Figure 7: per-category volume intensity (household baseline = Europe).
# --------------------------------------------------------------------------

_CATEGORY_INTENSITY: Dict[str, Dict[ServiceCategory, float]] = {
    "Congo": {
        ServiceCategory.CHAT: 7.0, ServiceCategory.SOCIAL: 4.5,
        ServiceCategory.VIDEO: 0.8, ServiceCategory.AUDIO: 0.35,
        ServiceCategory.WORK: 1.1, ServiceCategory.SEARCH: 1.3,
        ServiceCategory.OTHER: 1.1,
    },
    "Nigeria": {
        ServiceCategory.CHAT: 4.5, ServiceCategory.SOCIAL: 2.4,
        ServiceCategory.VIDEO: 0.7, ServiceCategory.AUDIO: 0.4,
        ServiceCategory.WORK: 1.0, ServiceCategory.SEARCH: 1.2,
        ServiceCategory.OTHER: 1.3,
    },
    "South Africa": {
        ServiceCategory.CHAT: 3.2, ServiceCategory.SOCIAL: 2.2,
        ServiceCategory.VIDEO: 0.8, ServiceCategory.AUDIO: 0.5,
        ServiceCategory.WORK: 1.0, ServiceCategory.SEARCH: 1.1,
        ServiceCategory.OTHER: 1.2,
    },
}
_INTENSITY_DEFAULT = {
    "Europe": {category: 1.0 for category in ServiceCategory},
    "Africa": {
        ServiceCategory.CHAT: 4.5, ServiceCategory.SOCIAL: 2.5,
        ServiceCategory.VIDEO: 0.7, ServiceCategory.AUDIO: 0.4,
        ServiceCategory.WORK: 1.0, ServiceCategory.SEARCH: 1.1,
        ServiceCategory.OTHER: 1.3,
    },
}
_INTENSITY_DEFAULT["Europe"][ServiceCategory.AUDIO] = 1.5
_INTENSITY_DEFAULT["Europe"][ServiceCategory.VIDEO] = 1.8
_INTENSITY_DEFAULT["Europe"][ServiceCategory.WORK] = 1.5
_INTENSITY_DEFAULT["Europe"][ServiceCategory.OTHER] = 1.8


# --------------------------------------------------------------------------
# Figure 4: diurnal activity (local time).
# --------------------------------------------------------------------------

def _bump(hours: np.ndarray, peak: float, width: float) -> np.ndarray:
    """Gaussian bump over the 24 h circle."""
    distance = ((hours - peak + 12.0) % 24.0) - 12.0
    return np.exp(-(distance**2) / (2.0 * width**2))


def _diurnal_weights(continent: str, country: str) -> np.ndarray:
    hours = np.arange(24, dtype=float)
    if continent == "Africa":
        morning_amp, evening_amp = (1.25, 0.85) if country == "Congo" else (0.97, 1.0)
        shape = (
            0.40
            + morning_amp * _bump(hours, 10.0, 3.2)
            + evening_amp * _bump(hours, 19.0, 2.6)
        )
    else:
        shape = 0.18 + 0.50 * _bump(hours, 13.0, 4.0) + 1.0 * _bump(hours, 19.5, 2.2)
    return shape / shape.sum()


# --------------------------------------------------------------------------
# Profile assembly.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CountryProfile:
    """Everything the generator needs to know about one country."""

    name: str
    location: Location
    customer_share: float
    type_mix: Tuple[float, float, float]
    hourly_weights_local: np.ndarray
    adoption_pct: Dict[str, float]
    category_intensity: Dict[ServiceCategory, float]

    @property
    def continent(self) -> str:
        return self.location.continent


def _adoption_for(country: str, continent: str) -> Dict[str, float]:
    adoption: Dict[str, float] = {}
    for name in SERVICES:
        if name in FIG6_ADOPTION_PCT:
            by_country = FIG6_ADOPTION_PCT[name]
            if country in by_country:
                adoption[name] = by_country[country]
            else:
                pool = [
                    pct for c, pct in by_country.items()
                    if COUNTRIES[c].continent == continent
                ]
                adoption[name] = float(np.mean(pool))
            continue
        europe_default, africa_default = _DEFAULT_ADOPTION_PCT[name]
        value = africa_default if continent == "Africa" else europe_default
        value = _ADOPTION_OVERRIDES.get(name, {}).get(country, value)
        adoption[name] = value
    return adoption


@lru_cache(maxsize=None)
def country_profile(name: str) -> CountryProfile:
    """Build (and cache) the profile for one subscriber country."""
    location = COUNTRIES[name]
    continent = location.continent
    return CountryProfile(
        name=name,
        location=location,
        customer_share=CUSTOMER_SHARE_PCT[name] / 100.0,
        type_mix=TYPE_MIX.get(name, _TYPE_MIX_DEFAULT[continent]),
        hourly_weights_local=_diurnal_weights(continent, name),
        adoption_pct=_adoption_for(name, continent),
        category_intensity=dict(
            _CATEGORY_INTENSITY.get(name, _INTENSITY_DEFAULT[continent])
        ),
    )
