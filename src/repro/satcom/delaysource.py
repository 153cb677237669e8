"""Time-indexed delay interface: one seam for GEO and LEO RTT.

Every layer that used to hold a raw :class:`SatelliteRttModel` —
workload generation, the packet network, the QoS micro-sim, the
flowmeter helpers — now holds a :class:`DelaySource` instead. The
source answers the same vectorized sampling questions the model did,
*plus* a flow start-time axis:

- :class:`StaticDelaySource` ignores the time axis entirely and
  delegates to the wrapped model verbatim — byte-identical to the
  pre-refactor stack (parity tests pin this), so every existing
  scenario keeps its capture digest.
- :class:`ConstellationDelaySource` adds a deterministic, hash-derived
  time-varying floor from a :class:`ConstellationModel` on top of the
  model's sample: orbital motion moves the propagation floor every
  ~15 s scheduling epoch, and flows that start inside the post-handover
  window pay a reconfiguration spike.

The determinism contract (DESIGN §7) survives because the constellation
adjustment consumes **zero RNG draws**: the wrapped model's bulk
sampler is called with the exact argument sequence it always saw, and
the time-varying delta is a pure function of each flow's timestamp.
Captures therefore stay bit-identical across ``--workers``,
``--pipeline-depth`` and fleet partitioning, for GEO and LEO alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.constants import SECONDS_PER_DAY
from repro.internet.geo import COUNTRIES, local_hour
from repro.satcom.constellation import ConstellationModel
from repro.satcom.delay_model import SatelliteRttModel

__all__ = [
    "DelaySource",
    "StaticDelaySource",
    "ConstellationDelaySource",
]


@dataclass
class DelaySource:
    """Base time-indexed RTT source wrapping a :class:`SatelliteRttModel`.

    The base class *is* the static behavior; subclasses override
    :meth:`floor_delta_s` (and the telemetry hooks) to make the floor
    move. Consumers treat the source as opaque: the hot path calls
    :meth:`sample_handshake_rtt_bulk` with per-flow loads and start
    times, casual callers use :meth:`sample_rtt` with customer ids.
    """

    rtt_model: SatelliteRttModel = field(default_factory=SatelliteRttModel)
    _customer_countries: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    @property
    def beam_map(self):
        return self.rtt_model.beam_map

    @property
    def is_time_varying(self) -> bool:
        return False

    # -- customer binding --------------------------------------------------

    def bind_customers(self, countries: Sequence[str]) -> None:
        """Attach the per-customer country table (population order).

        Lets :meth:`sample_rtt` resolve ``customer_ids`` to countries;
        the workload generator binds its population automatically.
        """
        self._customer_countries = np.asarray(countries, dtype=object)

    # -- time-varying hooks (identity for the static source) ---------------

    def floor_delta_s(self, country_name: str, t_s: np.ndarray) -> np.ndarray:
        """Per-flow adjustment to the model's static floor (seconds)."""
        return np.zeros(len(np.atleast_1d(t_s)), dtype=np.float64)

    def propagation_extra_s(self, country_name: str, t_s: float) -> float:
        """Scalar one-way extra propagation at an instant (packet path)."""
        return 0.0

    def handovers_between(self, t0_s: float, t1_s: float) -> int:
        """Satellite handovers a capture window ``[t0_s, t1_s)`` spans."""
        return 0

    # -- sampling ----------------------------------------------------------

    def floor_rtt_s(self, country_name: str, t_s: Optional[float] = None) -> float:
        """Propagation + fixed processing floor, optionally at a time."""
        static = self.rtt_model.floor_rtt_s(country_name)
        if t_s is None:
            return static
        delta = self.floor_delta_s(country_name, np.asarray([float(t_s)]))
        return float(static + delta[0])

    def sample_handshake_rtt_bulk(
        self,
        country_name: str,
        utilization: np.ndarray,
        pep_load: np.ndarray,
        t_s: Optional[np.ndarray],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Vectorized handshake RTTs with per-flow loads *and* times.

        The wrapped model's sampler runs first with its historical
        argument sequence (identical RNG stream); the time-varying
        floor delta is then added draw-free. ``t_s`` may be ``None``
        when the source is not :attr:`is_time_varying`.
        """
        base = self.rtt_model.sample_handshake_rtt_bulk(
            country_name, utilization, pep_load, rng
        )
        if not self.is_time_varying:
            return base
        return np.maximum(base + self.floor_delta_s(country_name, t_s), 1e-3)

    def sample_rtt(
        self,
        customer_ids: np.ndarray,
        t_s: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Handshake RTTs (seconds) for customers at flow start times.

        The convenience entry point named by the refactor: resolves
        each customer's country (via :meth:`bind_customers`), derives
        the beam loads from each flow's local hour, and samples one
        RTT per (customer, time) pair. Countries are processed in
        sorted order with per-country sub-streams, so the result is
        independent of input ordering only in distribution — use the
        bulk path for reproducible captures.
        """
        if self._customer_countries is None:
            raise ValueError(
                "DelaySource.sample_rtt needs bind_customers() first "
                "(the workload generator does this automatically)"
            )
        customer_ids = np.asarray(customer_ids)
        t_s = np.asarray(t_s, dtype=np.float64)
        if customer_ids.shape != t_s.shape:
            raise ValueError("customer_ids and t_s must have the same shape")
        out = np.empty(len(customer_ids), dtype=np.float64)
        flow_countries = self._customer_countries[customer_ids]
        for country in sorted(set(flow_countries.tolist())):
            mask = flow_countries == country
            location = COUNTRIES[country]
            beam = self.beam_map.beams_for(country)[0]
            hour_utc = (t_s[mask] % SECONDS_PER_DAY) / 3600.0
            hour_loc = local_hour(location, hour_utc)
            util = self.beam_map.utilization_bulk(
                np.full(mask.sum(), beam.peak_utilization),
                hour_loc,
                location.continent,
            )
            pep = self.beam_map.pep_utilization_bulk(
                np.full(mask.sum(), beam.pep_load), hour_loc, location.continent
            )
            out[mask] = self.sample_handshake_rtt_bulk(
                country, util, pep, t_s[mask], rng
            )
        return out


@dataclass
class StaticDelaySource(DelaySource):
    """The pre-refactor behavior behind the new interface.

    Pure delegation: time arguments are accepted and ignored, no extra
    RNG draws, no floor delta — the parity tests assert byte-identical
    samples against a bare :class:`SatelliteRttModel`.
    """


@dataclass
class ConstellationDelaySource(DelaySource):
    """Time-varying LEO floor on top of the static MAC/PEP/channel stack.

    The wrapped model (with its LEO-scale MAC constants and
    :class:`~repro.satcom.leo.LeoGeometryAdapter` mid-range floor)
    still produces the distribution body; this source swaps the static
    propagation component for the constellation's per-epoch floor and
    adds the handover spike. Both adjustments are pure functions of
    the flow timestamp (no RNG), preserving the capture determinism
    contract.
    """

    constellation: ConstellationModel = field(default_factory=ConstellationModel)
    handover_penalty_s: float = 0.008
    """Extra RTT paid by flows starting inside the post-handover window
    (path re-establishment through the new satellite)."""

    @property
    def is_time_varying(self) -> bool:
        return True

    def floor_delta_s(self, country_name: str, t_s: np.ndarray) -> np.ndarray:
        location = COUNTRIES[country_name]
        t_s = np.asarray(t_s, dtype=np.float64)
        static = self.rtt_model.geometry.propagation_rtt_s(location)
        dynamic = self.constellation.rtt_floor_s(location.lat_deg, t_s)
        delta = dynamic - static
        if self.handover_penalty_s > 0.0:
            delta = delta + np.where(
                self.constellation.handover_mask(t_s), self.handover_penalty_s, 0.0
            )
        return delta

    def propagation_extra_s(self, country_name: str, t_s: float) -> float:
        """One-way share of the floor delta at an instant (packet path)."""
        return 0.5 * float(
            self.floor_delta_s(country_name, np.asarray([float(t_s)]))[0]
        )

    def handovers_between(self, t0_s: float, t1_s: float) -> int:
        return self.constellation.handovers_between(t0_s, t1_s)
