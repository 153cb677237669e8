"""Spot beams: capacity, coverage and load.

Each region is covered by an uplink/downlink beam pair providing
aggregate capacity "on the order of Gb/s" (Section 2.1). Figure 8b
relates per-beam median satellite RTT to beam utilization and reveals
that Congo's and some Nigerian beams are congested — and that part of
the congestion is *PEP processing saturation* rather than raw beam
capacity (the operator confirmed this to the authors).

A :class:`Beam` therefore carries two load figures: ``peak_utilization``
(radio capacity) and ``pep_load`` (PEP processing). Utilization over
the day follows a continent-typical diurnal shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.internet.geo import COUNTRIES


@dataclass(frozen=True)
class Beam:
    """One spot beam serving a country (or part of one)."""

    beam_id: str
    country: str
    capacity_gbps: float
    peak_utilization: float
    pep_load: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.peak_utilization < 1.0:
            raise ValueError("peak_utilization must be in [0, 1)")
        if not 0.0 <= self.pep_load < 1.0:
            raise ValueError("pep_load must be in [0, 1)")


def _circular_bump(hour_local, peak: float, width: float):
    """Gaussian bump over the 24 h circle (scalar or ndarray)."""
    distance = (np.asarray(hour_local) - peak + 12.0) % 24.0 - 12.0
    return np.exp(-(distance**2) / (2.0 * width**2))


def diurnal_shape(hour_local, continent: str):
    """Relative load in [~0.2, 1.0] over the local day (vectorized).

    Europe peaks in the evening; African load is high through the
    morning too and never drops as low at night (Figure 4) because
    community access points serve users all day.
    """
    if continent == "Africa":
        morning = _circular_bump(hour_local, 10.0, 3.5)
        evening = _circular_bump(hour_local, 19.0, 2.5)
        shape = 0.45 + 0.55 * np.maximum(morning * 0.95, evening)
    else:
        evening = _circular_bump(hour_local, 19.0, 2.2)
        day = _circular_bump(hour_local, 12.0, 4.0)
        shape = 0.22 + 0.78 * np.maximum(evening, 0.55 * day)
    if np.ndim(hour_local) == 0:
        return float(shape)
    return shape


def utilization_at(peak_utilization: np.ndarray, shape: np.ndarray) -> np.ndarray:
    """Per-flow radio utilization from a :func:`diurnal_shape`."""
    return np.minimum(0.99, peak_utilization * shape)


def pep_load_at(pep_load: np.ndarray, shape: np.ndarray) -> np.ndarray:
    """Per-flow PEP load from the same :func:`diurnal_shape`, flattened
    (see :meth:`BeamMap.pep_utilization`)."""
    return np.minimum(0.99, pep_load * (0.72 + 0.28 * shape))


@dataclass
class BeamMap:
    """All beams of the satellite, grouped by country."""

    beams: List[Beam] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_country: Dict[str, List[Beam]] = {}
        for beam in self.beams:
            self._by_country.setdefault(beam.country, []).append(beam)

    def beams_for(self, country: str) -> List[Beam]:
        """Beams covering ``country`` (raises KeyError when uncovered)."""
        if country not in self._by_country:
            raise KeyError(f"no beam covers {country}")
        return self._by_country[country]

    def assign_beam(self, country: str, index: int) -> Beam:
        """Deterministically assign the ``index``-th customer to a beam."""
        beams = self.beams_for(country)
        return beams[index % len(beams)]

    def utilization(self, beam: Beam, hour_local: float) -> float:
        """Radio utilization of ``beam`` at local time ``hour_local``."""
        continent = COUNTRIES[beam.country].continent
        return min(0.99, beam.peak_utilization * diurnal_shape(hour_local, continent))

    def pep_utilization(self, beam: Beam, hour_local: float) -> float:
        """PEP processing load of ``beam`` at local time ``hour_local``.

        Flatter than radio utilization: PEP resources are allocated per
        SLA, and under-provisioned beams (Congo) stay saturated even at
        night — the paper observes "high RTT values already occur
        during periods of low peak traffic" (Section 6.1).
        """
        continent = COUNTRIES[beam.country].continent
        shape = 0.72 + 0.28 * diurnal_shape(hour_local, continent)
        return min(0.99, beam.pep_load * shape)

    def utilization_bulk(
        self, peak_utilization: np.ndarray, hour_local: np.ndarray, continent: str
    ) -> np.ndarray:
        """Vectorized :meth:`utilization` over per-flow arrays."""
        return utilization_at(peak_utilization, diurnal_shape(hour_local, continent))

    def pep_utilization_bulk(
        self, pep_load: np.ndarray, hour_local: np.ndarray, continent: str
    ) -> np.ndarray:
        """Vectorized :meth:`pep_utilization` over per-flow arrays."""
        return pep_load_at(pep_load, diurnal_shape(hour_local, continent))


#: Peak radio / PEP loads per country. Congo is congested on both
#: dimensions; two of Nigeria's beams are PEP-saturated; European
#: beams are lightly loaded (Section 6.1).
_BEAM_SPECS: Dict[str, List[tuple]] = {
    # (capacity_gbps, peak_utilization, pep_load)
    "Congo": [(1.4, 0.95, 0.96), (1.4, 0.92, 0.94)],
    "Nigeria": [(1.8, 0.88, 0.82), (1.8, 0.82, 0.72), (1.8, 0.60, 0.45), (1.8, 0.52, 0.38)],
    "South Africa": [(1.6, 0.58, 0.50), (1.6, 0.64, 0.58)],
    "Ireland": [(1.2, 0.46, 0.40)],
    "Spain": [(1.6, 0.50, 0.42), (1.6, 0.44, 0.38), (1.6, 0.38, 0.33)],
    "UK": [(1.6, 0.52, 0.46), (1.6, 0.56, 0.50)],
}

_DEFAULT_SPEC = {"Africa": (1.4, 0.75, 0.75), "Europe": (1.4, 0.45, 0.40)}


def build_default_beam_map() -> BeamMap:
    """The beam plan used throughout the reproduction.

    Every subscriber country gets at least one beam; the six focus
    countries follow the load pattern the paper reports.
    """
    beams: List[Beam] = []
    for country, location in COUNTRIES.items():
        specs = _BEAM_SPECS.get(country)
        if specs is None:
            capacity, peak, pep = _DEFAULT_SPEC[location.continent]
            specs = [(capacity, peak, pep)]
        for i, (capacity, peak, pep) in enumerate(specs):
            beams.append(
                Beam(
                    beam_id=f"{country.lower().replace(' ', '-')}-{i}",
                    country=country,
                    capacity_gbps=capacity,
                    peak_utilization=peak,
                    pep_load=pep,
                )
            )
    return BeamMap(beams=beams)
