"""Performance Enhancing Proxy: tunnel messages and capacity model.

Section 2.1 (RFC 3135 style): the CPE terminates subscriber TCP
connections and relays the byte stream over a reliable UDP tunnel to
the ground-station proxy, which opens the real TCP connection to the
server — decoupling congestion control across the satellite hop.

Section 6.1 adds the operational wrinkle this module's capacity model
captures: observed per-beam congestion "is not due to the beam
capacity, but rather to the saturation of the PEP processing ability.
This, in turn, slows down the forwarding of packets, especially during
the initial phase of the connection setup." The amount of PEP resource
per beam depends on the SLA the operator sells for that region.

The tunnel message types defined here are used by the packet-level
simulator (:mod:`repro.satcom.network`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

_TUNNEL_HEADER_BYTES = 24  # flow id + type + length + UDP framing


class TunnelMessageType(enum.Enum):
    """PEP tunnel message kinds."""

    CONNECT = "connect"
    CONNECT_OK = "connect-ok"
    DATA = "data"
    CLOSE = "close"


@dataclass
class TunnelMessage:
    """One message on the CPE↔ground-station PEP tunnel."""

    flow_id: int
    msg_type: TunnelMessageType
    payload: bytes = b""
    dst_ip: int = 0
    dst_port: int = 0
    src_ip: int = 0
    src_port: int = 0

    @property
    def wire_size(self) -> int:
        """Bytes the tunnel message occupies on the satellite link."""
        return _TUNNEL_HEADER_BYTES + len(self.payload)


@dataclass
class PepCapacityModel:
    """Connection-setup slowdown under PEP processing saturation.

    The mean extra setup delay grows like ``ρ/(1−ρ)`` in the PEP load
    ``ρ``; samples are exponential (processing queues drain in bursts).
    Data forwarding of established connections sees a much smaller
    penalty.
    """

    setup_scale_s: float = 0.080
    """Seconds of *median* setup delay per unit of ``ρ/(1−ρ)``."""

    setup_sigma: float = 1.1
    """Log-normal sigma of the setup delay (bursty queue drains give the
    distribution a heavy upper tail)."""

    forward_scale_s: float = 0.010
    """Mean forwarding delay per unit of ``ρ/(1−ρ)`` for established
    connections."""

    max_load_ratio: float = 10.0
    """Cap on ``ρ/(1−ρ)`` (finite processing queues)."""

    def _ratio(self, load: float) -> float:
        if not 0.0 <= load < 1.0:
            raise ValueError("PEP load must be in [0, 1)")
        return min(load / (1.0 - load), self.max_load_ratio)

    def median_setup_delay_s(self, load: float) -> float:
        """Median extra connection-setup delay at PEP load ``ρ``."""
        return self.setup_scale_s * self._ratio(load)

    def sample_setup_delay_s(
        self, load: float, rng: np.random.Generator, n: int = 1
    ) -> np.ndarray:
        """Extra setup delay for ``n`` new connections (log-normal)."""
        median = self.median_setup_delay_s(load)
        if median <= 0:
            return np.zeros(n)
        return median * rng.lognormal(0.0, self.setup_sigma, size=n)
