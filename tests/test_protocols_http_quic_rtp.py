"""Tests for HTTP, QUIC and RTP codecs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.protocols import http, quic, rtp


# --- HTTP -----------------------------------------------------------------


def test_http_request_round_trip():
    raw = http.encode_request("example.com", "/path", headers={"User-Agent": "repro"})
    request = http.parse_request(raw)
    assert request.method == "GET"
    assert request.path == "/path"
    assert request.host == "example.com"
    assert request.headers["user-agent"] == "repro"


def test_http_extract_host():
    assert http.parse_request(http.encode_request("h.example")).host == "h.example"
    assert http.parse_request(b"garbage bytes") is None


def test_http_response_length():
    raw = http.encode_response(500)
    assert b"Content-Length: 500" in raw
    head, _, body = raw.partition(b"\r\n\r\n")
    assert len(body) == 500
    with pytest.raises(ValueError):
        http.encode_response(-1)


def test_http_looks_like():
    assert http.looks_like_http(b"GET / HTTP/1.1\r\n")
    assert http.looks_like_http(b"POST /x HTTP/1.1\r\n")
    assert not http.looks_like_http(b"\x16\x03\x03\x00\x10")
    assert not http.looks_like_http(b"randomtext here")


def test_http_parse_rejects_lowercase_method():
    assert http.parse_request(b"get / HTTP/1.1\r\nHost: x\r\n\r\n") is None


# --- QUIC -----------------------------------------------------------------


def test_quic_initial_sni_round_trip():
    packet = quic.encode_initial("video.example.org")
    assert quic.extract_sni(packet) == "video.example.org"


def test_quic_long_header_fields():
    packet = quic.encode_initial("x.y", dcid=b"\xaa" * 8, scid=b"\xbb" * 4)
    header = quic.parse_long_header(packet)
    assert header.is_initial
    assert header.version == quic.QUIC_VERSION_1
    assert header.dcid == b"\xaa" * 8
    assert header.scid == b"\xbb" * 4


def test_quic_handshake_packet_not_initial():
    packet = quic.encode_handshake_packet(100)
    header = quic.parse_long_header(packet)
    assert header is not None and not header.is_initial
    assert quic.extract_sni(packet) is None


def test_quic_short_header():
    packet = quic.encode_short_header_packet(50)
    assert quic.parse_long_header(packet) is None
    assert quic.looks_like_quic(packet)


def test_quic_cid_length_limit():
    with pytest.raises(ValueError):
        quic.encode_initial("x.y", dcid=b"\x00" * 21)


def test_quic_looks_like_rejects_tls():
    from repro.protocols import tls

    assert not quic.looks_like_quic(tls.client_hello("a.b"))


@given(st.binary(max_size=100))
def test_quic_parser_never_crashes(data):
    quic.parse_long_header(data)
    quic.extract_sni(data)


# --- RTP ------------------------------------------------------------------


def test_rtp_round_trip():
    raw = rtp.encode(1000, 160000, 0xDEADBEEF, b"payload", payload_type=rtp.PAYLOAD_TYPE_H264, marker=True)
    header = rtp.decode(raw)
    assert header.sequence == 1000
    assert header.timestamp == 160000
    assert header.ssrc == 0xDEADBEEF
    assert header.payload_type == rtp.PAYLOAD_TYPE_H264
    assert header.marker


def test_rtp_sequence_wraps_16_bits():
    header = rtp.decode(rtp.encode(0x1FFFF, 0, 1))
    assert header.sequence == 0xFFFF


def test_rtp_rejects_wrong_version():
    raw = bytearray(rtp.encode(1, 2, 3))
    raw[0] = 0x00  # version 0
    assert rtp.decode(bytes(raw)) is None
    assert not rtp.looks_like_rtp(bytes(raw))


def test_rtp_payload_type_validation():
    with pytest.raises(ValueError):
        rtp.encode(1, 2, 3, payload_type=200)


def test_rtp_too_short():
    assert rtp.decode(b"\x80\x00") is None
