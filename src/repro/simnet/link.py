"""Point-to-point link model with rate, queue and propagation delay.

A :class:`Link` serializes payloads at ``rate_bps``, holds them in a
FIFO drop-tail queue bounded by ``queue_bytes``, and delivers them
``prop_delay_s`` after transmission completes. An optional per-packet
``extra_delay_fn`` lets callers inject stochastic delays (MAC access,
ARQ retransmissions) without subclassing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.simnet.engine import Simulator


@dataclass
class LinkStats:
    """Counters accumulated by a link over its lifetime."""

    packets_sent: int = 0
    packets_dropped: int = 0
    bytes_sent: int = 0
    bytes_dropped: int = 0
    busy_time_s: float = 0.0
    queue_delay_total_s: float = 0.0

    def mean_queue_delay_s(self) -> float:
        """Average queueing delay over delivered packets."""
        if self.packets_sent == 0:
            return 0.0
        return self.queue_delay_total_s / self.packets_sent


class Link:
    """Unidirectional link delivering opaque payloads to a callback.

    Parameters
    ----------
    sim:
        The simulator driving virtual time.
    rate_bps:
        Transmission rate in bits per second. ``None`` means infinite
        (zero serialization delay).
    prop_delay_s:
        One-way propagation delay applied after serialization.
    queue_bytes:
        Drop-tail buffer size. Packets arriving when ``backlog`` exceeds
        this are dropped.
    extra_delay_fn:
        Optional callable ``(size_bytes) -> seconds`` sampled per packet
        and added between dequeue and delivery (models MAC/ARQ delays).
    preserve_order:
        When True (default) deliveries never overtake each other even if
        a later packet samples a smaller extra delay — the PEP tunnel
        and the data-link ARQ provide reliable *in-order* service
        (Section 2.1).
    loss_probability:
        Per-packet random drop probability (backbone loss on the ground
        segment). Requires ``rng`` when non-zero.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: Optional[float] = None,
        prop_delay_s: float = 0.0,
        queue_bytes: int = 1_000_000,
        name: str = "link",
        extra_delay_fn: Optional[Callable[[int], float]] = None,
        preserve_order: bool = True,
        loss_probability: float = 0.0,
        rng=None,
    ) -> None:
        if rate_bps is not None and rate_bps <= 0:
            raise ValueError("rate_bps must be positive or None")
        if prop_delay_s < 0:
            raise ValueError("prop_delay_s must be non-negative")
        self.sim = sim
        self.rate_bps = rate_bps
        self.prop_delay_s = prop_delay_s
        self.queue_bytes = queue_bytes
        self.name = name
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        if loss_probability > 0.0 and rng is None:
            raise ValueError("loss_probability requires an rng")
        self.extra_delay_fn = extra_delay_fn
        self.preserve_order = preserve_order
        self.loss_probability = loss_probability
        self.rng = rng
        self.stats = LinkStats()
        self._backlog_bytes = 0
        self._busy_until = 0.0
        self._last_arrival = 0.0

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently queued or in transmission."""
        return self._backlog_bytes

    def serialization_delay_s(self, size_bytes: int) -> float:
        """Time to clock ``size_bytes`` onto the wire."""
        if self.rate_bps is None:
            return 0.0
        return size_bytes * 8.0 / self.rate_bps

    def send(self, payload: object, size_bytes: int, deliver: Callable[[object], None]) -> bool:
        """Enqueue ``payload`` for delivery; returns False if dropped.

        ``deliver(payload)`` is invoked when the last bit arrives at the
        far end.
        """
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        if self._backlog_bytes + size_bytes > self.queue_bytes:
            self.stats.packets_dropped += 1
            self.stats.bytes_dropped += size_bytes
            return False
        if self.loss_probability > 0.0 and self.rng.random() < self.loss_probability:
            self.stats.packets_dropped += 1
            self.stats.bytes_dropped += size_bytes
            return False

        now = self.sim.now
        start_tx = max(now, self._busy_until)
        tx_delay = self.serialization_delay_s(size_bytes)
        self._busy_until = start_tx + tx_delay
        self._backlog_bytes += size_bytes

        queue_delay = start_tx - now
        self.stats.queue_delay_total_s += queue_delay
        self.stats.busy_time_s += tx_delay

        extra = self.extra_delay_fn(size_bytes) if self.extra_delay_fn else 0.0
        arrival = self._busy_until + self.prop_delay_s + extra
        if self.preserve_order:
            arrival = max(arrival, self._last_arrival)
            self._last_arrival = arrival
        self.sim.at(arrival, self._deliver, payload, size_bytes, deliver)
        return True

    def _deliver(self, payload: object, size_bytes: int, deliver: Callable[[object], None]) -> None:
        self._backlog_bytes -= size_bytes
        self.stats.packets_sent += 1
        self.stats.bytes_sent += size_bytes
        deliver(payload)

    def utilization(self, elapsed_s: float) -> float:
        """Fraction of ``elapsed_s`` the transmitter was busy."""
        if elapsed_s <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time_s / elapsed_s)
