"""Tests for the Table 3 service classifier."""

import numpy as np
import pytest

from repro.analysis.classify import ServiceClassifier, TABLE3_RULES
from repro.traffic.services import ServiceCategory


@pytest.fixture(scope="module")
def clf():
    return ServiceClassifier()


@pytest.mark.parametrize(
    "domain,service",
    [
        ("rr4---sn-mxp1.googlevideo.com", "Youtube"),
        ("i.ytimg.com", "Youtube"),
        ("www.youtube.com", "Youtube"),
        ("redirector.gvt1.com", "Youtube"),
        ("ipv4-c020-mxp001-ix.1.oca.nflxvideo.net", "Netflix"),
        ("assets.nflxext.com", "Netflix"),
        ("occ-0-1168.nflxso.net", "Netflix"),
        ("ocdn.epg.sky.com", "Sky"),
        ("www.primevideo.com", "Primevideo"),
        ("atv-ps-eu.amazon.com", "Primevideo"),
        ("d1.pv-cdn.net", "Primevideo"),
        ("scontent-mxp1-1.xx.fbcdn.net", "Facebook"),
        ("graph.facebook.com", "Facebook"),
        ("abs.twimg.com", "Twitter"),
        ("static.licdn.com", "Linkedin"),
        ("scontent.cdninstagram.com", "Instagram"),
        ("i.instagram.com", "Instagram"),
        ("p16-sign-va.tiktokcdn.com", "Tiktok"),
        ("api16-normal.tiktokv.com", "Tiktok"),
        ("v16-web.tiktok.com", "Tiktok"),
        ("www.google.com", "Google"),
        ("google.es", "Google"),
        ("www.bing.com", "Bing"),
        ("s.yimg.com", "Yahoo"),
        ("duckduckgo.com", "Duckduck"),
        ("mmg.whatsapp.net", "Whatsapp"),
        ("web.whatsapp.com", "Whatsapp"),
        ("core.telegram.org", "Telegram"),
        ("app.snapchat.com", "Snapchat"),
        ("feelinsonice-hrd.appspot.com", "Snapchat"),
        ("edge.skype.com", "Skype"),
        ("dns.weixin.qq.com", "Wechat"),
        ("wxsnsdy.wxs.qq.com", "Wechat"),
        ("contoso.sharepoint.com", "Office365"),
        ("teams.microsoft.com", "Office365"),
        ("docs.google.com", "Gsuite"),
        ("drive.google.com", "Gsuite"),
        ("dl-web.dropbox.com", "Dropbox"),
        ("api.spotify.com", "Spotify"),
        ("audio4-ak.scdn.com", "Spotify"),
    ],
)
def test_positive_classification(clf, domain, service):
    assert clf.service_of(domain) == service


@pytest.mark.parametrize(
    "domain",
    [
        "news.qq.com",              # Chinese portal, not WeChat
        "api.netease.com",
        "play.googleapis.com",      # API endpoint, not Google Search
        "fonts.gstatic.com",
        "ssl.google-analytics.com",  # tracking, not Google Search
        "captive.apple.com",
        "au.download.windowsupdate.com",
        "www.wikipedia.org",
        "api.scooper.news",
        "stats.g.doubleclick.net",
    ],
)
def test_negative_classification(clf, domain):
    assert clf.service_of(domain) is None


def test_skype_beats_office365_pattern(clf):
    """Office365's rule also lists 'skype'; Chat must win (rule order)."""
    rule = clf.classify("latest-swx.cdn.skype.com")
    assert rule.service == "Skype"
    assert rule.category == ServiceCategory.CHAT


def test_youtube_beats_google_for_youtube_domains(clf):
    assert clf.service_of("www.youtube.com") == "Youtube"


def test_category_of(clf):
    assert clf.classify("mmg.whatsapp.net").category == ServiceCategory.CHAT
    assert clf.classify("unknown.example") is None
    assert clf.classify(None) is None


def test_case_insensitive(clf):
    assert clf.service_of("WWW.GOOGLE.COM") == "Google"


def test_memoization(clf):
    clf.classify("memo.test.example")
    assert "memo.test.example" in clf._cache


def test_classify_pool():
    clf = ServiceClassifier()
    pool = ["www.google.com", "unknown.example", "mmg.whatsapp.net"]
    labels, names = clf.classify_pool(pool)
    assert labels[0] == names.index("Google")
    assert labels[1] == -1
    assert labels[2] == names.index("Whatsapp")


def test_label_frame(small_frame):
    clf = ServiceClassifier()
    labels, names = clf.label_frame(small_frame)
    assert len(labels) == len(small_frame)
    assert labels.max() < len(names)
    # classifier output matches generator ground truth for Figure 6 services
    truth_names = small_frame.services
    for service in ("Whatsapp", "Netflix", "Tiktok"):
        truth_idx = truth_names.index(service)
        label_idx = names.index(service)
        truth_mask = small_frame.service_true_idx == truth_idx
        assert (labels[truth_mask] == label_idx).mean() > 0.99


def test_all_rules_have_patterns():
    for rule in TABLE3_RULES:
        assert rule.patterns
        assert rule.service
