"""Tests for the prefix-preserving anonymizer (CryptoPan property)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.cryptopan import PrefixPreservingAnonymizer
from repro.net.inet import ip_to_int


def test_deterministic():
    anon = PrefixPreservingAnonymizer(b"key")
    a1 = anon.anonymize_int(ip_to_int("10.1.2.3"))
    a2 = anon.anonymize_int(ip_to_int("10.1.2.3"))
    assert a1 == a2


def test_different_keys_differ():
    value = ip_to_int("10.1.2.3")
    a = PrefixPreservingAnonymizer(b"key-a").anonymize_int(value)
    b = PrefixPreservingAnonymizer(b"key-b").anonymize_int(value)
    assert a != b


def test_string_interface():
    anon = PrefixPreservingAnonymizer(b"key")
    out = anon.anonymize("8.8.8.8")
    assert out.count(".") == 3
    assert out != "8.8.8.8"


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        PrefixPreservingAnonymizer(b"")


def test_out_of_range_rejected():
    anon = PrefixPreservingAnonymizer(b"key")
    with pytest.raises(ValueError):
        anon.anonymize_int(-1)
    with pytest.raises(ValueError):
        anon.anonymize_int(1 << 32)


def _shared_prefix_len(a: int, b: int) -> int:
    """Length of the common prefix of two 32-bit addresses."""
    return 32 - (a ^ b).bit_length()


def test_shared_prefix_len_helper():
    assert _shared_prefix_len(0xFFFFFFFF, 0xFFFFFFFF) == 32
    assert _shared_prefix_len(0x80000000, 0x00000000) == 0
    assert _shared_prefix_len(0x0A000001, 0x0A000002) == 30


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
)
def test_prefix_preservation_property(a, b):
    """The defining CryptoPan property: shared prefix length is
    preserved exactly (same-length prefixes in, same-length out)."""
    anon = PrefixPreservingAnonymizer(b"property-key")
    ea, eb = anon.anonymize_int(a), anon.anonymize_int(b)
    assert _shared_prefix_len(a, b) == _shared_prefix_len(ea, eb)


@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_output_in_range(a):
    anon = PrefixPreservingAnonymizer(b"property-key")
    assert 0 <= anon.anonymize_int(a) <= 0xFFFFFFFF


def test_injective_on_sample():
    """Prefix preservation implies injectivity; spot-check a block."""
    anon = PrefixPreservingAnonymizer(b"key")
    base = ip_to_int("172.16.4.0")
    outputs = {anon.anonymize_int(base + i) for i in range(256)}
    assert len(outputs) == 256


def test_subnet_structure_preserved():
    """Addresses of one /24 stay together, distinct /24s stay apart."""
    anon = PrefixPreservingAnonymizer(b"key")
    net_a = [anon.anonymize_int(ip_to_int("10.0.1.0") + i) for i in range(10)]
    net_b = [anon.anonymize_int(ip_to_int("10.0.2.0") + i) for i in range(10)]
    prefix_a = {v >> 8 for v in net_a}
    prefix_b = {v >> 8 for v in net_b}
    assert len(prefix_a) == 1
    assert len(prefix_b) == 1
    assert prefix_a != prefix_b
