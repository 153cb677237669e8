"""RTT estimators.

Two estimators, matching Section 2.2:

* :class:`TcpRttEstimator` — the classic data↔ACK matcher. At the
  ground-station vantage point, a data segment toward the server and
  the ACK covering it measure the *ground RTT* (ground station →
  server → back).
* :class:`TlsHandshakeRttEstimator` — the paper's trick for the
  *satellite RTT*: the time from the ``ServerHello`` leaving the ground
  station to the ``ClientKeyExchange``/``ChangeCipherSpec`` coming back
  covers the satellite segment twice (plus the negligible home RTT),
  because the PEP relays TLS bytes end-to-end without terminating them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.net.flowkey import Direction

_SEQ_MOD = 1 << 32


def _seq_leq(a: int, b: int) -> bool:
    """a <= b in 32-bit sequence space (RFC 1323 style comparison)."""
    return ((b - a) % _SEQ_MOD) < (_SEQ_MOD >> 1)


@dataclass
class _Outstanding:
    seq_end: int
    sent_at: float


class TcpRttEstimator:
    """Per-direction data→ACK RTT sampler with Karn's rule.

    ``on_data`` records an outstanding segment; ``on_ack`` (seen in the
    opposite direction) closes every covered segment and emits one
    sample measured from the *latest* covered segment — cumulative ACKs
    therefore do not inflate samples. Retransmitted sequence ranges are
    discarded (Karn's algorithm): a retransmission removes the pending
    sample for that range.
    """

    def __init__(self) -> None:
        self._pending: Dict[Direction, List[_Outstanding]] = {
            Direction.CLIENT_TO_SERVER: [],
            Direction.SERVER_TO_CLIENT: [],
        }
        self._highest_seq: Dict[Direction, Optional[int]] = {
            Direction.CLIENT_TO_SERVER: None,
            Direction.SERVER_TO_CLIENT: None,
        }
        self.samples: Dict[Direction, List[float]] = {
            Direction.CLIENT_TO_SERVER: [],
            Direction.SERVER_TO_CLIENT: [],
        }

    def on_data(self, direction: Direction, seq: int, payload_len: int, now: float) -> None:
        """Record a data segment sent in ``direction`` at ``now``."""
        if payload_len <= 0:
            return
        seq_end = (seq + payload_len) % _SEQ_MOD
        highest = self._highest_seq[direction]
        if highest is not None and _seq_leq(seq_end, highest):
            # Retransmission (or reordering): Karn — drop any pending
            # sample overlapping this range.
            self._pending[direction] = [
                out for out in self._pending[direction] if not _seq_leq(out.seq_end, seq_end)
            ]
            return
        self._highest_seq[direction] = seq_end
        self._pending[direction].append(_Outstanding(seq_end=seq_end, sent_at=now))

    def on_ack(self, ack_direction: Direction, ack: int, now: float) -> None:
        """Process an ACK seen in ``ack_direction`` at ``now``.

        The ACK acknowledges data flowing the *opposite* way; samples
        are attributed to that data direction.
        """
        data_direction = ack_direction.flipped()
        pending = self._pending[data_direction]
        covered = [out for out in pending if _seq_leq(out.seq_end, ack)]
        if not covered:
            return
        latest = max(covered, key=lambda out: out.sent_at)
        self.samples[data_direction].append(now - latest.sent_at)
        self._pending[data_direction] = [
            out for out in pending if not _seq_leq(out.seq_end, ack)
        ]

    def ground_rtt_samples(self) -> List[float]:
        """Samples for data sent toward the server (the external path
        from the ground-station vantage point)."""
        return self.samples[Direction.CLIENT_TO_SERVER]


class TlsHandshakeRttEstimator:
    """Satellite RTT from ServerHello → ClientKeyExchange timing."""

    def __init__(self) -> None:
        self._server_hello_at: Optional[float] = None
        self._estimate_s: Optional[float] = None

    def on_server_hello(self, now: float) -> None:
        """The ServerHello left the ground station toward the customer."""
        if self._server_hello_at is None:
            self._server_hello_at = now

    def on_client_key_exchange(self, now: float) -> None:
        """The ClientKeyExchange / ChangeCipherSpec came back."""
        if self._server_hello_at is not None and self._estimate_s is None:
            self._estimate_s = now - self._server_hello_at

    @property
    def estimate_s(self) -> Optional[float]:
        """The satellite-segment RTT estimate, once per flow."""
        return self._estimate_s
