"""Multi-shell LEO constellation with deterministic orbital motion.

The GEO paper's 550 ms is a constant; the LEO related work (Michel et
al., and the region-level signature studies in PAPERS.md) shows RTT
that *moves*: the serving satellite changes on a ~15 s reconfiguration
boundary, the visible elevation depends on the subscriber's latitude
band, and every handover adds a brief RTT spike. This module models
exactly that much — no ephemerides, no ISL routing — as a pure
function of time:

- Time is quantized into *epochs* of ``reconfiguration_s`` seconds
  (Starlink reshuffles its schedule every 15 s).
- Per (epoch, latitude band, shell) a deterministic integer hash picks
  the serving shell (weighted by satellite count) and the visible
  elevation inside ``[min_elevation_deg, max usable elevation]``, with
  the usable cap shrinking toward the poles/high latitudes.
- The propagation RTT follows from the elevation-dependent slant range
  (:func:`repro.satcom.geometry.slant_range_from_elevation_m`) and the
  shell's bent-pipe hop count.

Everything is hash-derived — **no RNG draws** — so the time-varying
floor can be added on top of the existing bulk sampler without
perturbing its stream, which is what keeps captures bit-identical
across workers / pipeline depth / fleet partitioning (DESIGN §7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.constants import SPEED_OF_LIGHT_M_S, EARTH_RADIUS_M
from repro.satcom.leo import LeoShell

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TO_UNIT = float(2.0**-53)

#: Latitude bands are 10° wide — coarse enough that a whole country
#: shares one band, fine enough that Ireland and Congo differ.
LATITUDE_BAND_DEG = 10.0


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (uint64 in, uint64 out)."""
    z = (x + _GOLDEN).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _hash_unit(epoch: np.ndarray, *salts: int) -> np.ndarray:
    """Deterministic uniform in ``[0, 1)`` per epoch, salted.

    Chains the splitmix64 finalizer over the epoch index and the salt
    integers; the low 53 bits become the mantissa.
    """
    z = _splitmix64(epoch.astype(np.uint64))
    for salt in salts:
        z = _splitmix64(z ^ np.uint64(salt & 0xFFFFFFFFFFFFFFFF))
    return (z >> np.uint64(11)).astype(np.float64) * _TO_UNIT


def slant_range_m_vec(orbit_radius_m: float, elevation_deg: np.ndarray) -> np.ndarray:
    """Vectorized :func:`~repro.satcom.geometry.slant_range_from_elevation_m`."""
    elevation = np.radians(elevation_deg)
    r, R = orbit_radius_m, EARTH_RADIUS_M
    return -R * np.sin(elevation) + np.sqrt(r**2 - (R * np.cos(elevation)) ** 2)


@dataclass(frozen=True)
class ConstellationModel:
    """Deterministic time-varying RTT floor of a multi-shell constellation.

    ``shells`` and ``satellites_per_shell`` must be the same length;
    the per-epoch shell choice is weighted by satellite count, so a
    550 km shell with 1584 birds serves most epochs even when an
    1150 km shell is present.
    """

    shells: Tuple[LeoShell, ...] = (LeoShell(),)
    satellites_per_shell: Tuple[int, ...] = (1584,)
    reconfiguration_s: float = 15.0
    """Scheduling epoch: the serving satellite is re-chosen on this
    boundary (Starlink's 15 s reconfiguration interval)."""
    handover_window_s: float = 1.0
    """Flows starting within this long after an epoch boundary see the
    handover RTT spike."""

    def __post_init__(self) -> None:
        if len(self.shells) != len(self.satellites_per_shell):
            raise ValueError(
                "shells and satellites_per_shell must have the same length"
            )
        if not self.shells:
            raise ValueError("a constellation needs at least one shell")

    # -- time quantization -------------------------------------------------

    def epoch_of(self, t_s: np.ndarray) -> np.ndarray:
        """Scheduling-epoch index of each timestamp (int64)."""
        return np.floor_divide(
            np.asarray(t_s, dtype=np.float64), self.reconfiguration_s
        ).astype(np.int64)

    def handover_mask(self, t_s: np.ndarray) -> np.ndarray:
        """True where a flow starts inside the post-handover window."""
        phase = np.mod(np.asarray(t_s, dtype=np.float64), self.reconfiguration_s)
        return phase < self.handover_window_s

    def handovers_between(self, t0_s: float, t1_s: float) -> int:
        """Epoch boundaries crossed in ``[t0_s, t1_s)``."""
        if t1_s <= t0_s:
            return 0
        return int(
            np.floor(t1_s / self.reconfiguration_s)
            - np.floor(t0_s / self.reconfiguration_s)
        )

    # -- geometry ----------------------------------------------------------

    def latitude_band(self, lat_deg: float) -> int:
        """Band index of a latitude (10° bands, hemisphere-symmetric)."""
        return int(abs(lat_deg) // LATITUDE_BAND_DEG)

    def max_usable_elevation_deg(self, lat_deg: float) -> float:
        """Highest pass elevation the latitude band ever sees.

        Inclined shells cross the zenith only near their inclination
        limit; high-latitude terminals watch passes lower on the
        horizon. Modeled as a linear cap on the band-centre latitude,
        floored a few degrees above every shell's mask.
        """
        band_centre = self.latitude_band(lat_deg) * LATITUDE_BAND_DEG + 5.0
        floor = max(s.min_elevation_deg for s in self.shells) + 5.0
        return max(floor, 90.0 - 0.5 * band_centre)

    def serving_shell(self, lat_deg: float, t_s: np.ndarray) -> np.ndarray:
        """Per-flow serving shell index — a hash of (epoch, band).

        Weighted by ``satellites_per_shell`` so denser shells serve
        proportionally more epochs.
        """
        epoch = self.epoch_of(t_s)
        band = self.latitude_band(lat_deg)
        u = _hash_unit(epoch, 0x5348454C, band)
        weights = np.asarray(self.satellites_per_shell, dtype=np.float64)
        cumulative = np.cumsum(weights) / weights.sum()
        return np.searchsorted(cumulative, u, side="right").astype(np.int64)

    def visible_elevation_deg(self, lat_deg: float, t_s: np.ndarray) -> np.ndarray:
        """Per-flow elevation of the serving satellite (degrees).

        Per (epoch, band, shell) a hash draws from the visible cap with
        the cos-weighting geometry dictates (same transform as
        :meth:`LeoShell.sample_rtt_s`, but hash-derived, not RNG).
        """
        epoch = self.epoch_of(t_s)
        band = self.latitude_band(lat_deg)
        shell_idx = self.serving_shell(lat_deg, t_s)
        hi = np.sin(np.radians(self.max_usable_elevation_deg(lat_deg)))
        elevation = np.empty(len(epoch), dtype=np.float64)
        for k, shell in enumerate(self.shells):
            mask = shell_idx == k
            if not mask.any():
                continue
            u = _hash_unit(epoch[mask], 0x454C4556, band, k)
            lo = np.sin(np.radians(shell.min_elevation_deg))
            elevation[mask] = np.degrees(np.arcsin(lo + u * (max(hi, lo) - lo)))
        return elevation

    def rtt_floor_s(self, lat_deg: float, t_s: np.ndarray) -> np.ndarray:
        """Propagation RTT of the serving satellite at each timestamp.

        Both links of the bent pipe are taken at the selected pass
        elevation; non-bent-pipe shells traverse the space segment once
        per direction.
        """
        shell_idx = self.serving_shell(lat_deg, t_s)
        elevation = self.visible_elevation_deg(lat_deg, t_s)
        rtt = np.empty(len(shell_idx), dtype=np.float64)
        for k, shell in enumerate(self.shells):
            mask = shell_idx == k
            if not mask.any():
                continue
            hop_s = slant_range_m_vec(shell.orbit_radius_m, elevation[mask])
            hops = 4 if shell.bent_pipe else 2
            rtt[mask] = hops * hop_s / SPEED_OF_LIGHT_M_S
        return rtt

    # -- bounds ------------------------------------------------------------

    def min_rtt_s(self) -> float:
        """Best case across shells (zenith pass of the lowest shell)."""
        return min(shell.min_rtt_s() for shell in self.shells)

    def max_rtt_s(self) -> float:
        """Worst case across shells (mask-grazing pass, highest shell)."""
        return max(shell.max_rtt_s() for shell in self.shells)
