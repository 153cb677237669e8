"""Analytic satellite-segment RTT sampler.

Composes geometry (propagation), MAC (Aloha + TDMA), channel (ARQ) and
PEP (setup saturation) into the distribution the paper measures with
the TLS-handshake method (Section 2.2 / Figure 8): the time between the
``ServerHello`` leaving the ground station and the client's
``ClientKeyExchange`` returning, i.e. one full traversal of the
satellite segment in each direction plus everything the SatCom stack
adds.

One vectorized sampler serves the flow-level workload generator
(hundreds of thousands of flows per call, through ``DelaySource``) and
the calibration tests that check the paper's headline numbers on that
same sampler (>550 ms floor everywhere, Spain 82 % < 1 s at night,
Congo ~20 % > 2 s, Ireland load-independent heavy tail).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.internet.geo import COUNTRIES
from repro.satcom.beams import BeamMap, build_default_beam_map
from repro.satcom.channel import ChannelModel
from repro.satcom.geometry import SatelliteGeometry
from repro.satcom.mac import SlottedAlohaModel, TdmaModel
from repro.satcom.pep import PepCapacityModel

__all__ = ["SatelliteRttModel"]


@dataclass
class SatelliteRttModel:
    """Sampler for satellite-segment RTTs per (country, beam, hour)."""

    geometry: SatelliteGeometry = field(default_factory=SatelliteGeometry)
    beam_map: BeamMap = field(default_factory=build_default_beam_map)
    tdma: TdmaModel = field(default_factory=TdmaModel)
    aloha: SlottedAlohaModel = field(default_factory=SlottedAlohaModel)
    channel: ChannelModel = field(default_factory=ChannelModel)
    pep: PepCapacityModel = field(default_factory=PepCapacityModel)

    base_processing_s: float = 0.020
    """Fixed modem/framing/encapsulation processing per round trip."""

    terminal_median_s: float = 0.030
    terminal_sigma: float = 0.85
    """Log-normal end-device processing (TLS key computation on cheap
    CPE/user hardware — contributes the body-level variability)."""

    stack_jitter_median_s: float = 0.095
    stack_jitter_sigma: float = 1.0
    """Log-normal catch-all for the proprietary data-link stack
    ("further random delays", Section 2.1): interleaving, grant
    re-negotiation, encapsulation batching."""

    contention_fraction: float = 0.12
    """Fraction of handshakes that find the CPE idle and must win a
    slotted-Aloha reservation first (most flows arrive on already
    active terminals)."""

    def __post_init__(self) -> None:
        self._country_terms: Dict[str, Tuple[float, float]] = {}

    def _country_constants(self, country_name: str) -> Tuple[float, float]:
        """(floor RTT, frame error probability) of a country, computed
        once: both are pure functions of its location."""
        terms = self._country_terms.get(country_name)
        if terms is None:
            elevation = self.geometry.elevation_angle_deg(COUNTRIES[country_name])
            terms = (
                self.floor_rtt_s(country_name),
                self.channel.frame_error_probability(elevation),
            )
            self._country_terms[country_name] = terms
        return terms

    def floor_rtt_s(self, country_name: str) -> float:
        """Propagation + fixed processing floor for a country."""
        location = COUNTRIES[country_name]
        return self.geometry.propagation_rtt_s(location) + self.base_processing_s

    def sample_handshake_rtt_bulk(
        self,
        country_name: str,
        utilization: np.ndarray,
        pep_load: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Vectorized handshake-RTT sampling with per-flow loads.

        ``utilization`` and ``pep_load`` are per-flow arrays (already
        resolved for each flow's beam and local hour, e.g. via
        :meth:`repro.satcom.beams.BeamMap.utilization_bulk`).
        """
        floor, p_err = self._country_constants(country_name)
        n = len(utilization)

        terminal = self.terminal_median_s * rng.lognormal(0.0, self.terminal_sigma, n)
        jitter = self.stack_jitter_median_s * rng.lognormal(0.0, self.stack_jitter_sigma, n)

        # TDMA scheduling: alignment + assignment + exponential queueing
        # with a per-flow mean.
        frame = self.tdma.frame_s
        load_ratio = utilization / (1.0 - utilization)
        rho_term = np.minimum(load_ratio, self.tdma.max_queue_frames)
        scheduling = (
            rng.uniform(0.0, frame, n)
            + 0.5 * frame
            + rng.exponential(1.0, n) * frame * rho_term
        )

        # Slotted-Aloha contention for the fraction of flows that find
        # the CPE idle.
        idle_start = rng.random(n) < self.contention_fraction
        load = 0.35 * utilization
        p_success = np.maximum(1e-3, np.exp(-2.0 * load))
        retries = rng.geometric(p_success) - 1
        backoff = rng.integers(1, self.aloha.max_backoff_slots + 1, n)
        contention = np.where(
            idle_start,
            rng.uniform(0.0, self.aloha.slot_s, n)
            + retries * (self.aloha.reservation_rtt_s + backoff * self.aloha.slot_s),
            0.0,
        )

        # ARQ recoveries (scalar error probability per country).
        errors = rng.binomial(6, p_err, n)
        arq = errors * self.channel.arq_rtt_s + np.where(
            errors > 0, rng.uniform(0.0, 2.0 * frame, n) * errors, 0.0
        )

        # PEP setup saturation with per-flow median.
        pep_ratio = np.minimum(pep_load / (1.0 - pep_load), self.pep.max_load_ratio)
        pep_median = self.pep.setup_scale_s * pep_ratio
        pep_setup = pep_median * rng.lognormal(0.0, self.pep.setup_sigma, n)

        downlink_queue = rng.exponential(1.0, n) * (
            0.010 * np.minimum(load_ratio, 20.0) + 1e-6
        )
        return (
            floor + terminal + jitter + scheduling + contention + arq + pep_setup + downlink_queue
        )
