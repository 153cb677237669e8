"""QoS scheduling at the ground station.

Section 2.1: the ground station "supports Quality of Service (QoS)
schedulers to prioritize and shape traffic depending on the
application. To this end, the SatCom operator uses L3/L4 and domain
name-specific rules to prioritize interactive traffic and shape video
streaming flows."

We model exactly that: a rule table mapping flows to traffic classes
(by port, protocol, or domain pattern), a strict-priority scheduler
with per-class token-bucket shaping for the classes the operator rate
limits (video), and counters for observability.
"""

from __future__ import annotations

import enum
import re
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.satcom.shaper import TokenBucketShaper


class TrafficClass(enum.IntEnum):
    """Priority classes, highest first."""

    INTERACTIVE = 0  # DNS, VoIP/RTP, small interactive exchanges
    WEB = 1          # browsing, chat, APIs
    BULK = 2         # downloads, updates, uploads
    VIDEO = 3        # streaming (shaped, not prioritized)


@dataclass(frozen=True)
class ClassificationRule:
    """One operator rule: match by L4 port, protocol, or domain regex."""

    traffic_class: TrafficClass
    ports: Tuple[int, ...] = ()
    protocol: Optional[str] = None  # 'tcp' | 'udp'
    domain_pattern: Optional[str] = None

    def matches(self, protocol: str, port: int, domain: Optional[str]) -> bool:
        if self.protocol is not None and protocol != self.protocol:
            return False
        if self.ports and port not in self.ports:
            return False
        if self.domain_pattern is not None:
            if not domain or not re.search(self.domain_pattern, domain):
                return False
        return True


#: The operator's default rule table (first match wins).
DEFAULT_RULES: Tuple[ClassificationRule, ...] = (
    ClassificationRule(TrafficClass.INTERACTIVE, ports=(53,), protocol="udp"),
    ClassificationRule(TrafficClass.INTERACTIVE, domain_pattern=r"voip|turn|rtc"),
    ClassificationRule(
        TrafficClass.VIDEO,
        domain_pattern=r"googlevideo|nflxvideo|pv-cdn|sky\.com|tiktokcdn|video",
    ),
    ClassificationRule(TrafficClass.BULK, domain_pattern=r"windowsupdate|download|dl-|cdn-apple"),
    ClassificationRule(TrafficClass.WEB, ports=(80, 443)),
)


def video_session_shaper(shape_bps: Optional[float]) -> Optional[TokenBucketShaper]:
    """The per-session video token bucket (``None`` = unshaped plan).

    Session-structured video (:mod:`repro.traffic.sessions`) runs its
    chunk schedule through this bucket — the same primitive the
    strict-priority scheduler uses for the VIDEO class — so scenario
    ``traffic.qoe.shape_bps`` and packet-level shaping agree.
    """
    if shape_bps is None:
        return None
    return TokenBucketShaper(rate_bps=float(shape_bps))


def classify(
    protocol: str,
    port: int,
    domain: Optional[str],
    rules: Tuple[ClassificationRule, ...] = DEFAULT_RULES,
) -> TrafficClass:
    """Apply the rule table (first match wins; default BULK)."""
    for rule in rules:
        if rule.matches(protocol, port, domain):
            return rule.traffic_class
    return TrafficClass.BULK


@dataclass
class _Queued:
    payload: object
    size_bytes: int
    deliver: Callable[[object], None]


class PriorityShapingScheduler:
    """Strict-priority scheduler with optional per-class shaping.

    ``enqueue`` accepts classified packets; ``drain(now, budget_bytes)``
    releases them highest-priority-first, holding back packets of
    shaped classes whose token bucket is empty (video shaping). Returns
    the packets released this round, in order.
    """

    def __init__(
        self,
        class_rate_bps: Optional[Dict[TrafficClass, float]] = None,
        queue_limit_bytes: int = 4_000_000,
    ) -> None:
        self.queues: Dict[TrafficClass, Deque[_Queued]] = {
            cls: deque() for cls in TrafficClass
        }
        self.shapers: Dict[TrafficClass, TokenBucketShaper] = {
            cls: TokenBucketShaper(rate_bps=rate)
            for cls, rate in (class_rate_bps or {}).items()
        }
        self.queue_limit_bytes = queue_limit_bytes
        self.backlog_bytes = 0
        self.drops = 0
        self.released_by_class: Dict[TrafficClass, int] = {cls: 0 for cls in TrafficClass}

    def enqueue(
        self,
        traffic_class: TrafficClass,
        payload: object,
        size_bytes: int,
        deliver: Callable[[object], None],
    ) -> bool:
        """Queue a packet; returns False when the buffer is full."""
        if self.backlog_bytes + size_bytes > self.queue_limit_bytes:
            self.drops += 1
            return False
        self.queues[traffic_class].append(_Queued(payload, size_bytes, deliver))
        self.backlog_bytes += size_bytes
        return True

    def drain(self, now: float, budget_bytes: int) -> List[object]:
        """Release up to ``budget_bytes``, strict priority order."""
        released: List[object] = []
        remaining = budget_bytes
        for cls in TrafficClass:  # ascending value = descending priority
            queue = self.queues[cls]
            shaper = self.shapers.get(cls)
            while queue and queue[0].size_bytes <= remaining:
                head = queue[0]
                if shaper is not None and not shaper.would_conform(head.size_bytes, now):
                    break  # shaped class out of tokens — let lower classes run
                if shaper is not None:
                    shaper.delay_for(head.size_bytes, now)
                queue.popleft()
                self.backlog_bytes -= head.size_bytes
                remaining -= head.size_bytes
                self.released_by_class[cls] += 1
                head.deliver(head.payload)
                released.append(head.payload)
        return released

    @property
    def pending(self) -> int:
        """Packets currently queued across all classes."""
        return sum(len(q) for q in self.queues.values())
