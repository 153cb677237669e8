"""Tests for domain utilities and the appendix ground-RTT report."""

import pytest

from repro.analysis.classify import ServiceClassifier
from repro.analysis.domains import second_level_domain
from repro.analysis.reports import appendix_ground_rtt


@pytest.mark.parametrize(
    "domain,expected",
    [
        ("rr4---sn-x.googlevideo.com", "googlevideo.com"),
        ("www.google.com", "google.com"),
        ("news.bbc.co.uk", "bbc.co.uk"),
        ("static.xx.fbcdn.net", "fbcdn.net"),
        ("szextshort.weixin.qq.com", "qq.com"),
        ("api.scooper.news", "scooper.news"),
        ("feelinsonice-hrd.appspot.com", "feelinsonice-hrd.appspot.com"),
        ("twitter-any.s3.amazonaws.com", "twitter-any.s3.amazonaws.com"),
        ("portal.gov.ng.", "portal.gov.ng"),
        ("example.com", "example.com"),
        ("localhost", "localhost"),
    ],
)
def test_second_level_domain(domain, expected):
    assert second_level_domain(domain) == expected


def test_second_level_domain_none_and_empty():
    assert second_level_domain(None) is None
    assert second_level_domain("") is None


def test_second_level_domain_case_insensitive():
    assert second_level_domain("WWW.Google.COM") == "google.com"


def test_is_subdomain_of():
    """Table 3's leading-dot rules (``.yahoo.com``) match the domain
    itself and its subdomains, nothing that merely shares the suffix."""
    clf = ServiceClassifier()
    assert clf.service_of("a.b.yahoo.com") == "Yahoo"
    assert clf.service_of("yahoo.com") == "Yahoo"
    assert clf.service_of("notyahoo.com") != "Yahoo"
    assert clf.service_of("yahoo.com.evil.org") != "Yahoo"


@pytest.fixture(scope="module")
def appendix(small_frame):
    return appendix_ground_rtt.compute(small_frame, min_samples=3)


def test_appendix_top_domains_by_volume(appendix):
    for country in ("Congo", "Nigeria", "UK"):
        top = appendix.top_domains[country]
        assert 5 <= len(top) <= 25
        assert all("." in d for d in top)
    # video domains dominate volume everywhere
    assert any("googlevideo" in d or "nflxvideo" in d for d in appendix.top_domains["UK"])


def test_appendix_chinese_domains_slow_from_anywhere(appendix):
    """qq.com ≈ 240–255 ms regardless of resolver (appendix Table 4)."""
    values = [
        rtt for (country, _, sld), rtt in appendix.mean_rtt_ms.items()
        if sld == "qq.com"
    ]
    if values:  # Congo's Chinese community guarantees presence at scale
        assert min(values) > 180.0


def test_appendix_resolver_spread_larger_in_africa(appendix):
    """European cells barely move across resolvers; African cells do."""
    uk_spreads = [
        appendix.resolver_spread("UK", sld) or 0.0 for sld in appendix.top_domains["UK"]
    ]
    nigeria_spreads = [
        appendix.resolver_spread("Nigeria", sld) or 0.0
        for sld in appendix.top_domains["Nigeria"]
    ]
    assert max(nigeria_spreads) > max(uk_spreads)


def test_appendix_render(appendix):
    text = appendix_ground_rtt.render(appendix, "Nigeria")
    assert "Nigeria" in text
    assert "Second-level domain" in text
