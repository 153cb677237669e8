"""LEO constellation geometry (the Starlink comparison's physics).

The paper contrasts its GEO findings with Starlink via Michel et al.
[26]. This module grounds the built-in ``starlink`` ERRANT profile in
orbital geometry: a user terminal talks to whichever satellite of a
~550 km shell is above its minimum elevation, so the propagation floor
is two orders of magnitude below GEO — the whole reason the paper's
550 ms story does not apply to LEO.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import EARTH_RADIUS_M, SPEED_OF_LIGHT_M_S
from repro.satcom.geometry import slant_range_from_elevation_m


@dataclass(frozen=True)
class LeoShell:
    """One orbital shell of a LEO constellation."""

    altitude_m: float = 550_000.0
    min_elevation_deg: float = 25.0
    bent_pipe: bool = True
    """First-generation Starlink: user → satellite → gateway (bent pipe);
    the gateway sits within the same cell, so two hops bound the path."""

    @property
    def orbit_radius_m(self) -> float:
        return EARTH_RADIUS_M + self.altitude_m

    def slant_range_m(self, elevation_deg: float) -> float:
        """Distance to a satellite seen at ``elevation_deg``."""
        return slant_range_from_elevation_m(self.orbit_radius_m, elevation_deg)

    def min_rtt_s(self) -> float:
        """Best case: satellite at zenith, gateway co-located (4 hops)."""
        hop = self.altitude_m / SPEED_OF_LIGHT_M_S
        hops = 4 if self.bent_pipe else 2
        return hops * hop

    def max_rtt_s(self) -> float:
        """Worst case: both links at minimum elevation."""
        hop = self.slant_range_m(self.min_elevation_deg) / SPEED_OF_LIGHT_M_S
        hops = 4 if self.bent_pipe else 2
        return hops * hop

    def sample_rtt_s(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Propagation RTTs for random satellite positions.

        Elevation is drawn from the visible cap (area-weighted toward
        low elevations, as geometry dictates), both links resampled per
        round trip, plus a small processing/queueing floor — this
        reproduces the ~25–60 ms medians Michel et al. measured once the
        terrestrial segment is added.
        """
        def hop_delays() -> np.ndarray:
            # cos(elevation)-weighted sampling over the visible cap
            u = rng.random(n)
            elevation = np.degrees(
                np.arcsin(
                    np.sin(np.radians(self.min_elevation_deg))
                    + u * (1.0 - np.sin(np.radians(self.min_elevation_deg)))
                )
            )
            ranges = np.array([self.slant_range_m(e) for e in elevation])
            return ranges / SPEED_OF_LIGHT_M_S

        hops = 2 if self.bent_pipe else 1
        one_way = sum(hop_delays() for _ in range(hops))
        processing = rng.gamma(2.0, 0.004, n) + 0.010  # scheduling + terrestrial
        return 2.0 * one_way + processing


@dataclass(frozen=True)
class LeoGeometryAdapter:
    """A :class:`LeoShell` behind the GEO geometry duck-type.

    ``SatelliteRttModel`` only asks its geometry for a per-location
    propagation floor and an elevation angle, so a LEO shell can stand
    in for the GEO bird: the floor is the shell's mid-range RTT (the
    satellite overhead moves, so no single location-dependent figure
    exists) and the elevation is a typical mid-cap pass. This is what
    lets the ``leo`` scenario reuse the entire MAC/PEP/channel stack
    with LEO-scale constants.
    """

    shell: LeoShell = LeoShell()
    typical_elevation_deg: float = 50.0

    def propagation_rtt_s(self, location) -> float:
        """Mid-range shell RTT — location-independent for a moving shell."""
        return 0.5 * (self.shell.min_rtt_s() + self.shell.max_rtt_s())

    def elevation_angle_deg(self, location) -> float:
        return self.typical_elevation_deg
