"""Geography: locations, countries, geodesic distance.

The monitored satellite serves Europe and Africa "from Ireland to South
Africa" (Section 2.1) with a single ground station in Italy. Locations
here are population-weighted country centroids; distances use the
haversine formula. These coordinates drive both the satellite geometry
(slant range → propagation delay, elevation → channel quality) and the
terrestrial latency model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.constants import EARTH_RADIUS_M


@dataclass(frozen=True)
class Location:
    """A named point on Earth."""

    name: str
    lat_deg: float
    lon_deg: float
    continent: str = ""

    def __str__(self) -> str:
        return self.name


def lon_hour_shift(location: Location) -> float:
    """Hours ahead of UTC at ``location``'s longitude (15° per hour)."""
    return location.lon_deg / 15.0


def local_hour(location: Location, hour_utc):
    """Approximate local time from longitude. Accepts scalar or ndarray."""
    return (hour_utc + location.lon_deg / 15.0) % 24.0


def utc_hour(location: Location, hour_local):
    """Inverse of :func:`local_hour`. Accepts scalar or ndarray."""
    return (hour_local - location.lon_deg / 15.0) % 24.0


SATELLITE_LONGITUDE_DEG = 9.0
"""Orbital slot of the monitored GEO satellite (degrees East). Chosen so
the footprint spans Ireland to South Africa with Ireland at the coverage
edge, as the paper describes."""

GROUND_STATION = Location("Fucino-IT", 41.98, 13.60, "Europe")
"""The single ground station, in Italy (Section 2.1). All traffic enters
the Internet here."""


#: Subscriber countries. The top-3 European and top-3 African countries
#: analyzed throughout the paper come first; the remaining entries fill
#: out the >20-country footprint of Figure 2.
COUNTRIES: Dict[str, Location] = {
    "Congo": Location("Congo", -4.32, 15.31, "Africa"),  # DR Congo, Kinshasa
    "Nigeria": Location("Nigeria", 9.08, 7.49, "Africa"),
    "South Africa": Location("South Africa", -26.20, 28.05, "Africa"),
    "Ireland": Location("Ireland", 53.35, -6.26, "Europe"),
    "Spain": Location("Spain", 40.42, -3.70, "Europe"),
    "UK": Location("UK", 51.51, -0.13, "Europe"),
    "Germany": Location("Germany", 52.52, 13.40, "Europe"),
    "France": Location("France", 48.86, 2.35, "Europe"),
    "Italy": Location("Italy", 41.90, 12.50, "Europe"),
    "Portugal": Location("Portugal", 38.72, -9.14, "Europe"),
    "Greece": Location("Greece", 37.98, 23.73, "Europe"),
    "Poland": Location("Poland", 52.23, 21.01, "Europe"),
    "Morocco": Location("Morocco", 33.97, -6.85, "Africa"),
    "Senegal": Location("Senegal", 14.72, -17.47, "Africa"),
    "Cameroon": Location("Cameroon", 3.87, 11.52, "Africa"),
    "Ghana": Location("Ghana", 5.60, -0.19, "Africa"),
    "Kenya": Location("Kenya", -1.29, 36.82, "Africa"),
    "Angola": Location("Angola", -8.84, 13.23, "Africa"),
    "Mozambique": Location("Mozambique", -25.97, 32.57, "Africa"),
    "Ivory Coast": Location("Ivory Coast", 5.36, -4.01, "Africa"),
    "Mali": Location("Mali", 12.64, -8.00, "Africa"),
    "Libya": Location("Libya", 32.89, 13.19, "Africa"),
}


#: Server locations referenced by the CDN/resolver models.
SERVER_SITES: Dict[str, Location] = {
    "Milan-IX": Location("Milan-IX", 45.46, 9.19, "Europe"),
    "Frankfurt": Location("Frankfurt", 50.11, 8.68, "Europe"),
    "Amsterdam": Location("Amsterdam", 52.37, 4.90, "Europe"),
    "Paris": Location("Paris", 48.86, 2.35, "Europe"),
    "London": Location("London", 51.51, -0.13, "Europe"),
    "Madrid": Location("Madrid", 40.42, -3.70, "Europe"),
    "Marseille": Location("Marseille", 43.30, 5.37, "Europe"),
    "Stockholm": Location("Stockholm", 59.33, 18.07, "Europe"),
    "US-East": Location("US-East", 39.04, -77.49, "NorthAmerica"),  # Ashburn
    "US-West": Location("US-West", 37.37, -121.92, "NorthAmerica"),  # San Jose
    "Lagos": Location("Lagos", 6.52, 3.38, "Africa"),
    "Kinshasa": Location("Kinshasa", -4.32, 15.31, "Africa"),
    "Johannesburg": Location("Johannesburg", -26.20, 28.05, "Africa"),
    "Nairobi": Location("Nairobi", -1.29, 36.82, "Africa"),
    "Beijing": Location("Beijing", 39.90, 116.40, "Asia"),
    "Shanghai": Location("Shanghai", 31.23, 121.47, "Asia"),
    "Singapore": Location("Singapore", 1.35, 103.82, "Asia"),
    "Mumbai": Location("Mumbai", 19.08, 72.88, "Asia"),
}


def country(name: str) -> Location:
    """Look up a subscriber country by name (raises KeyError)."""
    return COUNTRIES[name]


def geodesic_km(a: Location, b: Location) -> float:
    """Great-circle distance between two locations in kilometres.

    >>> round(geodesic_km(COUNTRIES["UK"], COUNTRIES["Spain"]), -2)
    1300.0
    """
    lat1, lon1 = math.radians(a.lat_deg), math.radians(a.lon_deg)
    lat2, lon2 = math.radians(b.lat_deg), math.radians(b.lon_deg)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * (EARTH_RADIUS_M / 1000.0) * math.asin(min(1.0, math.sqrt(h)))
