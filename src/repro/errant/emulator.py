"""Transfer/page-load emulation over an access-link profile.

Mirrors what researchers do with the released ERRANT model: sample
link conditions, estimate object-fetch and page-load times, or emit
``tc netem``-style command lines to configure a real emulator box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.errant.model import AccessLinkProfile
from repro.satcom.pagefetch import FetchParameters, fetch_time_with_pep, fetch_time_without_pep


@dataclass
class Emulator:
    """Samples transfers/page loads over one profile."""

    profile: AccessLinkProfile
    seed: int = 0
    pep: bool = True
    """GEO SatCom deployments run a PEP (Section 2.1); terrestrial
    profiles should be emulated with ``pep=False`` semantics — which for
    their low RTTs makes little difference."""

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.seed)

    def sample_conditions(self, n: int = 1) -> Dict[str, np.ndarray]:
        """Draw (rtt_ms, down_mbps, up_mbps) tuples."""
        return {
            "rtt_ms": self.profile.sample_rtt_ms(self.rng, n),
            "down_mbps": self.profile.sample_down_mbps(self.rng, n),
            "up_mbps": self.profile.sample_up_mbps(self.rng, n),
        }

    def emulate_transfer(self, size_bytes: float, n: int = 1, tls: bool = True) -> np.ndarray:
        """Durations (s) of ``n`` independent downloads of ``size_bytes``."""
        conditions = self.sample_conditions(n)
        out = np.empty(n)
        for i in range(n):
            params = FetchParameters(
                size_bytes=size_bytes,
                satellite_rtt_s=conditions["rtt_ms"][i] / 1000.0,
                ground_rtt_s=0.02,
                rate_bps=conditions["down_mbps"][i] * 1e6,
                tls=tls,
            )
            fetch = fetch_time_with_pep if self.pep else fetch_time_without_pep
            out[i] = fetch(params)
        return out

    def emulate_page_load(
        self,
        n_objects: int = 30,
        object_bytes: float = 60_000,
        parallelism: int = 6,
        n: int = 1,
    ) -> np.ndarray:
        """Simple page-load model: objects fetched over ``parallelism``
        connections, each connection paying its own setup."""
        if n_objects <= 0 or parallelism <= 0:
            raise ValueError("n_objects and parallelism must be positive")
        rounds = int(np.ceil(n_objects / parallelism))
        out = np.empty(n)
        for i in range(n):
            total = self.emulate_transfer(object_bytes, n=rounds, tls=True).sum()
            out[i] = total
        return out

    def mean_transfer_time(self, size_bytes: float, n: int = 200) -> float:
        """Convenience: mean download duration."""
        return float(self.emulate_transfer(size_bytes, n).mean())

    def netem_commands(self, interface: str = "eth0") -> List[str]:
        """``tc`` command lines approximating the profile (ERRANT's
        output format: delay ± variation, rate, loss)."""
        rtt = self.profile.rtt_median_ms
        # lognormal sigma → a crude symmetric jitter for netem
        jitter = rtt * (np.exp(self.profile.rtt_sigma) - 1.0)
        return [
            (
                f"tc qdisc add dev {interface} root handle 1: netem "
                f"delay {rtt / 2:.0f}ms {jitter / 2:.0f}ms "
                f"loss {self.profile.loss_pct:.2f}%"
            ),
            (
                f"tc qdisc add dev {interface} parent 1: handle 2: tbf "
                f"rate {self.profile.down_median_mbps:.0f}mbit burst 32kbit latency 400ms"
            ),
        ]


def compare_profiles(
    profiles: Dict[str, AccessLinkProfile],
    size_bytes: float = 1_000_000,
    n: int = 300,
    seed: int = 0,
) -> Dict[str, float]:
    """Mean transfer time per profile — the GEO vs Starlink vs FTTH
    comparison the paper's released model enables."""
    out = {}
    for name, profile in profiles.items():
        pep = name.startswith("geo")
        emulator = Emulator(profile=profile, seed=seed, pep=pep)
        out[name] = emulator.mean_transfer_time(size_bytes, n)
    return out
