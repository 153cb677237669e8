"""Tests for the RTT estimators."""

import pytest

from repro.flowmeter.rtt import TcpRttEstimator, TlsHandshakeRttEstimator
from repro.net.flowkey import Direction

C2S = Direction.CLIENT_TO_SERVER
S2C = Direction.SERVER_TO_CLIENT


def test_single_sample():
    est = TcpRttEstimator()
    est.on_data(C2S, seq=1, payload_len=100, now=0.0)
    est.on_ack(S2C, ack=101, now=0.015)
    assert est.ground_rtt_samples() == [pytest.approx(0.015)]


def test_cumulative_ack_uses_latest_segment():
    """One cumulative ACK covering two segments must not inflate the
    sample with the first segment's send time."""
    est = TcpRttEstimator()
    est.on_data(C2S, seq=1, payload_len=100, now=0.0)
    est.on_data(C2S, seq=101, payload_len=100, now=0.5)
    est.on_ack(S2C, ack=201, now=0.512)
    assert est.ground_rtt_samples() == [pytest.approx(0.012)]


def test_partial_ack_leaves_later_segment_pending():
    est = TcpRttEstimator()
    est.on_data(C2S, seq=1, payload_len=100, now=0.0)
    est.on_data(C2S, seq=101, payload_len=100, now=0.001)
    est.on_ack(S2C, ack=101, now=0.020)
    est.on_ack(S2C, ack=201, now=0.021)
    samples = est.ground_rtt_samples()
    assert len(samples) == 2
    assert samples[0] == pytest.approx(0.020)
    assert samples[1] == pytest.approx(0.020)


def test_karn_rule_discards_retransmitted_range():
    est = TcpRttEstimator()
    est.on_data(C2S, seq=1, payload_len=100, now=0.0)
    est.on_data(C2S, seq=1, payload_len=100, now=1.0)  # retransmission
    est.on_ack(S2C, ack=101, now=1.012)
    assert est.ground_rtt_samples() == []  # ambiguous sample dropped


def test_duplicate_ack_produces_no_sample():
    est = TcpRttEstimator()
    est.on_data(C2S, seq=1, payload_len=100, now=0.0)
    est.on_ack(S2C, ack=101, now=0.010)
    est.on_ack(S2C, ack=101, now=0.020)
    assert len(est.ground_rtt_samples()) == 1


def test_directions_tracked_independently():
    est = TcpRttEstimator()
    est.on_data(C2S, seq=1, payload_len=10, now=0.0)
    est.on_data(S2C, seq=1, payload_len=10, now=0.0)
    est.on_ack(S2C, ack=11, now=0.012)  # acks C2S data
    est.on_ack(C2S, ack=11, now=0.300)  # acks S2C data
    assert est.samples[C2S] == [pytest.approx(0.012)]
    assert est.samples[S2C] == [pytest.approx(0.300)]
    assert len(est.samples[C2S] + est.samples[S2C]) == 2


def test_zero_length_data_ignored():
    est = TcpRttEstimator()
    est.on_data(C2S, seq=1, payload_len=0, now=0.0)
    est.on_ack(S2C, ack=1, now=0.010)
    assert est.ground_rtt_samples() == []


def test_sequence_wraparound():
    est = TcpRttEstimator()
    near_wrap = (1 << 32) - 50
    est.on_data(C2S, seq=near_wrap, payload_len=100, now=0.0)
    est.on_ack(S2C, ack=50, now=0.014)  # wrapped ACK
    assert est.ground_rtt_samples() == [pytest.approx(0.014)]


def test_tls_estimator_happy_path():
    est = TlsHandshakeRttEstimator()
    est.on_server_hello(now=1.0)
    est.on_client_key_exchange(now=1.62)
    assert est.estimate_s == pytest.approx(0.62)


def test_tls_estimator_once_per_flow():
    est = TlsHandshakeRttEstimator()
    est.on_server_hello(now=1.0)
    est.on_client_key_exchange(now=1.6)
    est.on_server_hello(now=5.0)
    est.on_client_key_exchange(now=9.0)
    assert est.estimate_s == pytest.approx(0.6)


def test_tls_estimator_requires_server_hello_first():
    est = TlsHandshakeRttEstimator()
    est.on_client_key_exchange(now=1.0)
    assert est.estimate_s is None
