"""Tests for the PEP capacity model, tunnel messages and the shaper."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.satcom.pep import PepCapacityModel, TunnelMessage, TunnelMessageType
from repro.satcom.shaper import TokenBucketShaper


# --- PEP capacity ------------------------------------------------------------


def test_setup_delay_grows_with_load():
    pep = PepCapacityModel()
    medians = [pep.median_setup_delay_s(load) for load in (0.1, 0.5, 0.8, 0.9)]
    assert medians == sorted(medians)


def test_setup_delay_capped_at_max_ratio():
    pep = PepCapacityModel(max_load_ratio=4.0)
    assert pep.median_setup_delay_s(0.99) == pytest.approx(pep.setup_scale_s * 4.0)


def test_load_validated():
    pep = PepCapacityModel()
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            pep.median_setup_delay_s(bad)


def test_setup_samples_lognormal_median(rng):
    pep = PepCapacityModel()
    samples = pep.sample_setup_delay_s(0.9, rng, 20_000)
    assert np.median(samples) == pytest.approx(pep.median_setup_delay_s(0.9), rel=0.05)


def test_setup_samples_zero_at_zero_load(rng):
    pep = PepCapacityModel()
    assert np.all(pep.sample_setup_delay_s(0.0, rng, 100) == 0.0)


def test_tunnel_message_wire_size():
    message = TunnelMessage(flow_id=1, msg_type=TunnelMessageType.DATA, payload=b"x" * 100)
    assert message.wire_size == 124
    empty = TunnelMessage(flow_id=1, msg_type=TunnelMessageType.CLOSE)
    assert empty.wire_size == 24


# --- Token bucket -------------------------------------------------------------


def test_burst_passes_without_delay():
    shaper = TokenBucketShaper(rate_bps=8_000_000, burst_bytes=10_000)
    assert shaper.delay_for(10_000, now=0.0) == 0.0


def test_debt_paid_at_sustained_rate():
    shaper = TokenBucketShaper(rate_bps=8_000_000, burst_bytes=1_000)  # 1 MB/s
    shaper.delay_for(1_000, now=0.0)
    delay = shaper.delay_for(1_000_000, now=0.0)
    assert delay == pytest.approx(1.0)


def test_tokens_refill_over_time():
    shaper = TokenBucketShaper(rate_bps=8_000, burst_bytes=1_000)  # 1000 B/s
    shaper.delay_for(1_000, now=0.0)
    assert shaper.delay_for(500, now=0.5) == 0.0  # 500 tokens refilled


def test_bucket_never_exceeds_burst():
    shaper = TokenBucketShaper(rate_bps=8_000, burst_bytes=1_000)
    shaper.delay_for(0, now=100.0)  # long idle
    assert shaper.tokens <= 1_000


def test_time_going_backwards_rejected():
    shaper = TokenBucketShaper(rate_bps=8_000)
    shaper.delay_for(10, now=1.0)
    with pytest.raises(ValueError):
        shaper.delay_for(10, now=0.5)


def test_would_conform_does_not_mutate():
    shaper = TokenBucketShaper(rate_bps=8_000, burst_bytes=1_000)
    before = shaper.tokens
    assert shaper.would_conform(500, now=0.0)
    assert shaper.tokens == before


def test_invalid_construction():
    with pytest.raises(ValueError):
        TokenBucketShaper(rate_bps=0)
    with pytest.raises(ValueError):
        TokenBucketShaper(rate_bps=100, burst_bytes=0)


def test_fractional_sizes_accepted():
    """Workload callers pass numpy float64 chunk sizes; fractional
    bytes must drain tokens exactly, not truncate."""
    shaper = TokenBucketShaper(rate_bps=8_000, burst_bytes=1_000)
    assert shaper.delay_for(0.5, now=0.0) == 0.0
    assert shaper.tokens == pytest.approx(999.5)
    assert shaper.delay_for(np.float64(0.25), now=0.0) == 0.0
    assert shaper.tokens == pytest.approx(999.25)


def test_zero_size_is_free():
    shaper = TokenBucketShaper(rate_bps=8_000, burst_bytes=1_000)
    before = shaper.tokens
    assert shaper.delay_for(0.0, now=0.0) == 0.0
    assert shaper.tokens == before


def test_fractional_debt_paid_at_rate():
    shaper = TokenBucketShaper(rate_bps=8_000, burst_bytes=1_000)  # 1000 B/s
    shaper.delay_for(1_000, now=0.0)
    assert shaper.delay_for(0.5, now=0.0) == pytest.approx(0.0005)


def test_negative_nan_and_inf_sizes_rejected():
    shaper = TokenBucketShaper(rate_bps=8_000, burst_bytes=1_000)
    with pytest.raises(ValueError, match="non-negative"):
        shaper.delay_for(-1, now=0.0)
    with pytest.raises(ValueError, match="non-negative"):
        shaper.delay_for(float("nan"), now=0.0)
    with pytest.raises(ValueError, match="finite"):
        shaper.delay_for(float("inf"), now=0.0)
    # rejected sizes never mutate the bucket
    assert shaper.tokens == 1_000


@given(st.lists(st.integers(min_value=1, max_value=5_000), min_size=5, max_size=40))
def test_long_run_rate_never_exceeds_configured(sizes):
    """Property: cumulative release time respects the sustained rate."""
    rate_bps = 80_000.0  # 10 kB/s
    shaper = TokenBucketShaper(rate_bps=rate_bps, burst_bytes=2_000)
    now = 0.0
    released_at = []
    for size in sizes:
        delay = shaper.delay_for(size, now)
        released_at.append(now + delay)
        now += delay
    total_bytes = sum(sizes)
    elapsed = released_at[-1]
    # bytes beyond the initial burst must be paced at the token rate
    assert total_bytes - 2_000 <= rate_bps / 8.0 * elapsed + 1e-6
