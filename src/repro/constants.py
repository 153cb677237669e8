"""Physical and protocol constants used throughout the reproduction.

Values follow the paper (Section 2.1) and standard references: a GEO
satellite orbits at 35 786 km, packets traverse the satellite link twice
per round trip, and the resulting propagation RTT is 480-560 ms depending
on the subscriber's position on Earth.
"""

SPEED_OF_LIGHT_M_S = 299_792_458.0
"""Speed of light in vacuum (m/s) — satellite links are line of sight."""

FIBER_PROPAGATION_M_S = SPEED_OF_LIGHT_M_S * 2.0 / 3.0
"""Effective propagation speed in optical fiber (refractive index ~1.5)."""

GEO_ALTITUDE_M = 35_786_000.0
"""Altitude of the geostationary orbit above the equator (m)."""

EARTH_RADIUS_M = 6_371_000.0
"""Mean Earth radius (m)."""

GEO_ORBIT_RADIUS_M = EARTH_RADIUS_M + GEO_ALTITUDE_M
"""Distance of a GEO satellite from the Earth's centre (m)."""

TDMA_FRAME_S = 0.045
"""Return-link TDMA frame duration (s). DVB-RCS2 superframes are tens of
milliseconds; 45 ms is a typical operational value."""

ALOHA_SLOT_S = 0.0015
"""Duration of one slotted-Aloha contention slot on the reservation
channel (s)."""

ETHERNET_MTU = 1500
"""Maximum transmission unit assumed on all links (bytes)."""

IPV4_HEADER_LEN = 20
TCP_HEADER_LEN = 20
UDP_HEADER_LEN = 8

BYTES_PER_MB = 1_000_000
BYTES_PER_GB = 1_000_000_000

SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86_400
HOURS_PER_DAY = 24

ACTIVE_CUSTOMER_FLOW_THRESHOLD = 250
"""The paper defines *active customers* as those generating at least 250
flows in a day (Section 4)."""

BULK_FLOW_MIN_BYTES = 10 * BYTES_PER_MB
"""Minimum flow size considered a valid bulk-download throughput sample
(Section 6.5)."""

NIGHT_HOURS = (2.0, 5.0)
"""Local-hour night period ``[start, end)`` of Figures 8a and 11b."""

PEAK_HOURS = (13.0, 20.0)
"""Local-hour peak period ``[start, end)`` of Figures 8 and 11b."""
