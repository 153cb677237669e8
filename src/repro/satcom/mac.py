"""Return-link medium access: slotted Aloha + TDMA scheduling.

Section 2.1: "a slotted-Aloha protocol allows the CPE to access the
shared reservation channel the first time it needs to transmit. Then, a
TDMA scheduling protocol run by the satellite allocates time-slots to
each active CPE … By combining these MAC, scheduling, FEC and ARQ
protocols, further random delays are added".

Model:

* **Slotted Aloha** (reservation channel): with offered load ``G`` the
  per-attempt success probability is ``exp(-2G)``; each failed attempt
  costs a binary-exponential backoff plus the reservation round trip
  through the satellite (the collision is only discovered ~270 ms
  later).
* **TDMA** (data slots): a packet waits for its slot within the frame
  (uniform), the demand-assignment loop adds about half a frame, and
  under utilization ``ρ`` queueing adds an exponential delay with mean
  ``frame · ρ/(1−ρ)`` (M/M/1-flavored, capped).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import ALOHA_SLOT_S, TDMA_FRAME_S

#: One traversal of the space segment — a collision or a capacity
#: request is only resolved after the reservation message reaches the
#: scheduler and the response comes back (~2 hops).
_RESERVATION_RTT_S = 0.52


@dataclass
class SlottedAlohaModel:
    """First-access contention on the shared reservation channel.

    Parameters only: :meth:`SatelliteRttModel.sample_handshake_rtt_bulk`
    draws the contention delay per flow.
    """

    slot_s: float = ALOHA_SLOT_S
    reservation_rtt_s: float = _RESERVATION_RTT_S
    max_backoff_slots: int = 64


@dataclass
class TdmaModel:
    """Demand-assigned TDMA on the return link."""

    frame_s: float = TDMA_FRAME_S
    max_queue_frames: float = 10.0
    """Cap on the mean queueing delay, in frames (finite MAC buffers)."""

    def mean_queue_delay_s(self, utilization: float) -> float:
        """Mean queueing delay at radio utilization ``ρ``."""
        if not 0.0 <= utilization < 1.0:
            raise ValueError("utilization must be in [0, 1)")
        rho_term = min(utilization / (1.0 - utilization), self.max_queue_frames)
        return self.frame_s * rho_term

    def sample_scheduling_delay_s(
        self,
        utilization: float,
        rng: np.random.Generator,
        n: int = 1,
    ) -> np.ndarray:
        """Per-burst scheduling delay at radio utilization ``ρ``.

        slot alignment (uniform within the frame) + demand-assignment
        overhead (~half a frame) + exponential queueing.
        """
        alignment = rng.uniform(0.0, self.frame_s, size=n)
        assignment = 0.5 * self.frame_s * np.ones(n)
        queue = rng.exponential(self.mean_queue_delay_s(utilization), size=n)
        return alignment + assignment + queue
