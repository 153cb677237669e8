"""Tests for the MAC (Aloha/TDMA) and channel (FEC/ARQ) models."""

import numpy as np
import pytest

from repro.satcom.channel import ChannelModel
from repro.satcom.delay_model import SatelliteRttModel
from repro.satcom.mac import SlottedAlohaModel, TdmaModel


def _aloha_delay_s(utilization, n):
    """The slotted-Aloha access delay as ``sample_handshake_rtt_bulk``
    draws it, at offered load ``0.35 · utilization``: two models that
    differ only in ``contention_fraction`` make the same draws, so their
    difference is the contention term alone."""
    loads = (np.full(n, utilization), np.zeros(n))
    always, never = (
        SatelliteRttModel(contention_fraction=fraction).sample_handshake_rtt_bulk(
            "Spain", *loads, np.random.default_rng(1234)
        )
        for fraction in (1.0, 0.0)
    )
    return always - never


def test_aloha_zero_load_is_fast():
    aloha = SlottedAlohaModel()
    delays = _aloha_delay_s(0.0, 1000)
    assert delays.max() <= aloha.slot_s  # no retries, only alignment


def test_aloha_delay_grows_with_load():
    aloha = SlottedAlohaModel()
    light = _aloha_delay_s(0.05 / 0.35, 4000).mean()
    heavy = _aloha_delay_s(0.95, 4000).mean()
    assert heavy > light
    # each retry costs at least a reservation round trip
    assert heavy > aloha.reservation_rtt_s * 0.5


def test_tdma_mean_queue_delay_monotonic():
    tdma = TdmaModel()
    values = [tdma.mean_queue_delay_s(u) for u in (0.1, 0.5, 0.8, 0.9)]
    assert values == sorted(values)
    assert tdma.mean_queue_delay_s(0.0) == 0.0


def test_tdma_queue_delay_capped():
    tdma = TdmaModel(max_queue_frames=5.0)
    assert tdma.mean_queue_delay_s(0.99) == pytest.approx(tdma.frame_s * 5.0)


def test_tdma_utilization_validated():
    tdma = TdmaModel()
    with pytest.raises(ValueError):
        tdma.mean_queue_delay_s(1.0)
    with pytest.raises(ValueError):
        tdma.mean_queue_delay_s(-0.1)


def test_tdma_scheduling_includes_frame_alignment(rng):
    tdma = TdmaModel()
    delays = tdma.sample_scheduling_delay_s(0.0, rng, 2000)
    # at zero load: alignment U(0, frame) + half frame
    assert delays.min() >= 0.5 * tdma.frame_s - 1e-9
    assert delays.max() <= 1.5 * tdma.frame_s + 1e-9
    assert delays.mean() == pytest.approx(tdma.frame_s, rel=0.1)


def test_channel_error_probability_decays_with_elevation():
    channel = ChannelModel()
    probs = [channel.frame_error_probability(e) for e in (25, 30, 40, 60, 85)]
    assert probs == sorted(probs, reverse=True)
    assert channel.frame_error_probability(85) < 0.01
    assert channel.frame_error_probability(0) == 1.0  # below horizon


def test_channel_ireland_vs_spain_contrast():
    """Ireland (~27°) must be markedly worse than Spain (~41°)."""
    channel = ChannelModel()
    assert channel.frame_error_probability(27.5) > 4 * channel.frame_error_probability(41.5)


def test_arq_delay_zero_without_errors(rng):
    channel = ChannelModel(floor_probability=0.0, edge_probability=0.0)
    delays = channel.sample_arq_delay_s(90.0, rng, 500)
    assert np.all(delays == 0.0)


def test_arq_delay_scales_with_recoveries(rng):
    channel = ChannelModel()
    low = channel.sample_arq_delay_s(85.0, rng, 4000).mean()
    high = channel.sample_arq_delay_s(25.0, rng, 4000).mean()
    assert high > low
    # a single recovery costs at least the ARQ round trip
    affected = channel.sample_arq_delay_s(25.0, rng, 4000)
    assert affected[affected > 0].min() >= channel.arq_rtt_s * 0.9
