"""Prefix-preserving IP anonymization (CryptoPan-style).

The paper anonymizes customer addresses in real time with CryptoPan
[Fan et al. 2004], whose defining property is *prefix preservation*: two
addresses sharing a k-bit prefix map to anonymized addresses sharing a
k-bit prefix (and no longer one, unless by construction).

CryptoPan instantiates its per-bit pseudo-random function with AES. No
AES primitive is available in this environment's dependency set, so we
instantiate the same construction with HMAC-SHA256 — the algorithm's
structure (Xiao's canonical form: the i-th output bit is the i-th input
bit XOR ``f(prefix_{i-1})``) and hence the prefix-preserving property
are identical. This substitution is documented in DESIGN.md §6.
"""

from __future__ import annotations

import hashlib
import hmac
from functools import lru_cache


class PrefixPreservingAnonymizer:
    """Deterministic, keyed, prefix-preserving IPv4 anonymizer.

    >>> anon = PrefixPreservingAnonymizer(b"secret key")
    >>> a = anon.anonymize_int(0x0A000001)  # 10.0.0.1
    >>> b = anon.anonymize_int(0x0A000002)  # 10.0.0.2
    >>> (a >> 8) == (b >> 8)  # /24 prefix preserved
    True
    """

    def __init__(self, key: bytes) -> None:
        if not key:
            raise ValueError("key must be non-empty")
        self._key = key
        # Memoize the per-prefix PRF: real traces reuse prefixes heavily.
        self._prf_bit = lru_cache(maxsize=1 << 16)(self._prf_bit_uncached)

    def _prf_bit_uncached(self, prefix_bits: int, prefix_len: int) -> int:
        """One pseudo-random bit from the length-``prefix_len`` prefix."""
        message = prefix_len.to_bytes(1, "big") + prefix_bits.to_bytes(4, "big")
        digest = hmac.new(self._key, message, hashlib.sha256).digest()
        return digest[0] & 1

    def anonymize_int(self, address: int) -> int:
        """Anonymize a 32-bit integer address."""
        if not 0 <= address <= 0xFFFFFFFF:
            raise ValueError(f"address out of IPv4 range: {address}")
        result = 0
        for i in range(32):
            # prefix of length i (the i most-significant bits)
            prefix = address >> (32 - i) if i else 0
            flip = self._prf_bit(prefix, i)
            original_bit = (address >> (31 - i)) & 1
            result = (result << 1) | (original_bit ^ flip)
        return result

    def anonymize(self, address: str) -> str:
        """Anonymize a dotted-quad address string."""
        from repro.net.inet import ip_from_int, ip_to_int

        return ip_from_int(self.anonymize_int(ip_to_int(address)))
