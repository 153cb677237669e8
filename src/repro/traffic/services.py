"""The service catalog.

One entry per service the paper names (Figure 6 / Table 3) plus the
supporting traffic classes that make the protocol mix of Table 1 come
out right (software updates over plain HTTP, VPNs, RTP calls, tracking
and API endpoints, Chinese platforms popular in Congo, local African
portals). Every service knows:

* the **domains** its flows carry in SNI/Host (templated so generated
  FQDNs look like real CDN hostnames and match the paper's Table 3
  regular expressions),
* its **deployment** (CDN footprint + selection policy),
* its **protocol mix** (HTTPS / QUIC / HTTP / RTP …),
* a **flow-size model** (log-normal volumes, upload ratio).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

import numpy as np

from repro.flowmeter.records import L7_ORDER, L7Protocol
from repro.internet.servers import SelectionPolicy
from repro.traffic.distributions import LogNormal, choice_cdf, choice_from_cdf


class ServiceCategory(enum.Enum):
    """Categories of Section 3.1 (plus OTHER for supporting traffic)."""

    AUDIO = "Audio streaming"
    CHAT = "Chat"
    SEARCH = "Search engine"
    SOCIAL = "Social"
    VIDEO = "Video streaming"
    WORK = "Work"
    OTHER = "Other"


_CDN_CODES = ("mxp1", "frt3", "lhr8", "mad1", "cdg2", "ams4", "jnb1", "los2")


@dataclass(frozen=True)
class FlowSizeModel:
    """Log-normal per-flow volume model.

    Sampling goes through :class:`~repro.traffic.distributions.LogNormal`,
    whose ``sample`` is expression-identical to the inline draws this
    model used to hard-code — the migration is draw-neutral.
    """

    down_median_bytes: float
    down_sigma: float
    up_ratio_median: float
    up_ratio_sigma: float = 0.5

    @property
    def down(self) -> LogNormal:
        """Per-flow downlink volume distribution (bytes)."""
        return LogNormal(self.down_median_bytes, self.down_sigma)

    @property
    def up_ratio(self) -> LogNormal:
        """Upload-to-download ratio distribution."""
        return LogNormal(self.up_ratio_median, self.up_ratio_sigma)


@dataclass(frozen=True)
class Service:
    """One catalog entry."""

    name: str
    category: ServiceCategory
    domain_templates: Tuple[str, ...]
    footprint: str
    policy: SelectionPolicy
    protocol_mix: Tuple[Tuple[L7Protocol, float], ...]
    size: FlowSizeModel
    flows_median: float = 12.0
    flows_sigma: float = 0.8
    intentional: bool = True
    """Counted in the Figure 6 popularity heatmap (False for services
    that mostly appear as third parties — tracking, embedded widgets)."""

    def sample_domain(self, rng: np.random.Generator) -> str:
        """A concrete FQDN from the templates."""
        template = self.domain_templates[int(rng.integers(len(self.domain_templates)))]
        if "{n}" in template:
            template = template.replace("{n}", str(int(rng.integers(1, 32))))
        if "{code}" in template:
            template = template.replace("{code}", _CDN_CODES[int(rng.integers(len(_CDN_CODES)))])
        return template

    @cached_property
    def protocol_labels(self) -> np.ndarray:
        """:data:`L7_ORDER` index of each :attr:`protocol_mix` entry."""
        return np.array([L7_ORDER.index(proto) for proto, _ in self.protocol_mix])

    @cached_property
    def protocol_weights(self) -> np.ndarray:
        """Normalised :attr:`protocol_mix` weights."""
        weights = np.array([w for _, w in self.protocol_mix], dtype=float)
        weights /= weights.sum()
        return weights

    @cached_property
    def protocol_cdf(self) -> np.ndarray:
        """:func:`~repro.traffic.distributions.choice_cdf` of the mix."""
        return choice_cdf(self.protocol_weights)

    def sample_protocol(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Indices into :data:`L7_ORDER` for ``n`` flows."""
        return self.protocol_labels[choice_from_cdf(rng, self.protocol_cdf, n)]

    @property
    def flows_noise(self) -> LogNormal:
        """Unit-median flow-count noise: multiplying by its samples is
        bitwise-equal to the legacy bare ``rng.lognormal(0, sigma)``."""
        return LogNormal(1.0, self.flows_sigma)


#: Re-exported for convenience; defined next to :class:`L7Protocol`.

_HTTPS = ((L7Protocol.HTTPS, 1.0),)
_MOSTLY_QUIC = ((L7Protocol.QUIC, 0.74), (L7Protocol.HTTPS, 0.26))
_SOME_QUIC = ((L7Protocol.QUIC, 0.30), (L7Protocol.HTTPS, 0.70))
_HTTP = ((L7Protocol.HTTP, 1.0),)

_MB = 1_000_000.0
_KB = 1_000.0


def _svc(
    name: str,
    category: ServiceCategory,
    domains: Tuple[str, ...],
    footprint: str,
    policy: SelectionPolicy,
    protocol_mix,
    down_median: float,
    down_sigma: float,
    up_ratio: float,
    flows_median: float = 12.0,
    intentional: bool = True,
) -> Service:
    return Service(
        name=name,
        category=category,
        domain_templates=domains,
        footprint=footprint,
        policy=policy,
        protocol_mix=tuple(protocol_mix),
        size=FlowSizeModel(down_median, down_sigma, up_ratio),
        flows_median=flows_median,
        intentional=intentional,
    )


SERVICES: Dict[str, Service] = {
    s.name: s
    for s in (
        # --- Search engines -------------------------------------------------
        _svc("Google", ServiceCategory.SEARCH,
             ("www.google.com", "google.com", "google.es", "google.co.uk", "google.it"),
             "global-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _SOME_QUIC,
             12 * _KB, 1.0, 0.10, flows_median=25),
        _svc("Bing", ServiceCategory.SEARCH,
             ("www.bing.com",), "euro-us-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _HTTPS,
             9 * _KB, 1.0, 0.10, flows_median=8),
        _svc("Yahoo", ServiceCategory.SEARCH,
             ("www.yahoo.com", "s.yimg.com"), "euro-us-cdn", SelectionPolicy.DNS_RESOLVER_GEO,
             _HTTPS, 15 * _KB, 1.0, 0.08, flows_median=6),
        _svc("Duckduck", ServiceCategory.SEARCH,
             ("duckduckgo.com",), "euro-us-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _HTTPS,
             8 * _KB, 1.0, 0.10, flows_median=5),
        # --- Chat -----------------------------------------------------------
        _svc("Whatsapp", ServiceCategory.CHAT,
             ("mmg.whatsapp.net", "g.whatsapp.net", "mmx-ds.cdn.whatsapp.net",
              "static.whatsapp.net", "web.whatsapp.com"),
             "global-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _HTTPS,
             56 * _KB, 1.5, 0.60, flows_median=40),
        _svc("Snapchat", ServiceCategory.CHAT,
             ("app.snapchat.com", "chat-eu.snapchat.com", "feelinsonice-hrd.appspot.com"),
             "global-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _SOME_QUIC,
             44 * _KB, 1.4, 0.45, flows_median=25),
        _svc("Wechat", ServiceCategory.CHAT,
             ("szextshort.weixin.qq.com", "dns.weixin.qq.com", "wxsnsdy.wxs.qq.com",
              "web.wechat.com"),
             "china-cloud", SelectionPolicy.DNS_RESOLVER_GEO, _HTTPS,
             38 * _KB, 1.4, 0.50, flows_median=30),
        _svc("Telegram", ServiceCategory.CHAT,
             ("venus.web.telegram.org", "core.telegram.org"),
             "euro-cloud", SelectionPolicy.DNS_RESOLVER_GEO, _HTTPS,
             31 * _KB, 1.4, 0.45, flows_median=20),
        _svc("Skype", ServiceCategory.CHAT,
             ("edge.skype.com", "api.skype.com", "latest-swx.cdn.skype.com"),
             "euro-us-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _HTTPS,
             25 * _KB, 1.3, 0.60, flows_median=8),
        # --- Social ---------------------------------------------------------
        _svc("Facebook", ServiceCategory.SOCIAL,
             ("graph.facebook.com", "www.facebook.com", "scontent-{code}-1.xx.fbcdn.net",
              "static.xx.fbcdn.net", "edge-mqtt.facebook.com"),
             "global-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _SOME_QUIC,
             110 * _KB, 1.4, 0.12, flows_median=35, intentional=False),
        _svc("Twitter", ServiceCategory.SOCIAL,
             ("api.twitter.com", "abs.twimg.com", "pbs.twimg.com"),
             "euro-us-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _HTTPS,
             50 * _KB, 1.3, 0.08, flows_median=12, intentional=False),
        _svc("Linkedin", ServiceCategory.SOCIAL,
             ("www.linkedin.com", "static.licdn.com", "media.licdn.com"),
             "euro-us-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _HTTPS,
             38 * _KB, 1.2, 0.08, flows_median=8),
        _svc("Instagram", ServiceCategory.SOCIAL,
             ("i.instagram.com", "graph.instagram.com", "scontent-{code}-2.cdninstagram.com"),
             "global-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _SOME_QUIC,
             170 * _KB, 1.4, 0.10, flows_median=30),
        _svc("Tiktok", ServiceCategory.SOCIAL,
             ("api16-normal-c-useast1a.tiktokv.com", "v16-webapp.tiktok.com",
              "p16-sign-va.tiktokcdn.com", "v{n}-default.tiktokcdn.com"),
             "asia-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _SOME_QUIC,
             280 * _KB, 1.3, 0.06, flows_median=28),
        # --- Video ----------------------------------------------------------
        _svc("Youtube", ServiceCategory.VIDEO,
             ("rr{n}---sn-{code}.googlevideo.com", "i.ytimg.com", "www.youtube.com",
              "redirector.gvt1.com"),
             "global-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _MOSTLY_QUIC,
             1.6 * _MB, 1.3, 0.02, flows_median=18, intentional=False),
        _svc("Netflix", ServiceCategory.VIDEO,
             ("ipv4-c{n}-mxp001-ix.1.oca.nflxvideo.net", "api-global.netflix.com",
              "assets.nflxext.com", "occ-0-static.nflxso.net"),
             "video-cdn", SelectionPolicy.ANYCAST, _HTTPS,
             4.4 * _MB, 1.2, 0.01, flows_median=10),
        _svc("Primevideo", ServiceCategory.VIDEO,
             ("atv-ext-eu.amazon.com", "www.primevideo.com", "d25xi40x97liuc.pv-cdn.net",
              "atv-ps-eu.amazon.com"),
             "euro-us-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _HTTPS,
             4.0 * _MB, 1.2, 0.01, flows_median=8),
        _svc("Sky", ServiceCategory.VIDEO,
             ("ocdn.epg.sky.com", "video-ips.sky.com", "mobile-tv.sky.com"),
             "euro-cloud", SelectionPolicy.DNS_RESOLVER_GEO, _HTTP,
             3.6 * _MB, 1.2, 0.01, flows_median=8),
        # --- Audio ----------------------------------------------------------
        _svc("Spotify", ServiceCategory.AUDIO,
             ("api.spotify.com", "audio4-ak.scdn.com", "heads4-ak.scdn.com",
              "i.scdn.com"),
             "euro-us-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _HTTPS,
             500 * _KB, 1.0, 0.02, flows_median=10),
        # --- Work -----------------------------------------------------------
        _svc("Office365", ServiceCategory.WORK,
             ("outlook.office365.com", "teams.microsoft.com", "substrate.office.com",
              "contoso.sharepoint.com"),
             "euro-us-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _HTTPS,
             150 * _KB, 1.4, 0.50, flows_median=25),
        _svc("Gsuite", ServiceCategory.WORK,
             ("docs.google.com", "drive.google.com", "sheets.google.com",
              "slides.google.com"),
             "global-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _SOME_QUIC,
             125 * _KB, 1.4, 0.60, flows_median=15),
        _svc("Dropbox", ServiceCategory.WORK,
             ("www.dropbox.com", "dl-web.dropbox.com", "bolt.dropbox.com"),
             "us-cloud-east", SelectionPolicy.DNS_RESOLVER_GEO, _HTTPS,
             250 * _KB, 1.5, 0.80, flows_median=10),
        # --- Supporting traffic (not in Figure 6) ----------------------------
        _svc("AppleServices", ServiceCategory.OTHER,
             ("captive.apple.com", "gsp-ssl.ls.apple.com", "configuration.apple.com",
              "updates-http.cdn-apple.com"),
             "apple-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _HTTPS,
             38 * _KB, 1.5, 0.08, flows_median=20, intentional=False),
        _svc("GoogleAPIs", ServiceCategory.OTHER,
             ("play.googleapis.com", "storage.googleapis.com", "fonts.gstatic.com",
              "update.gstatic.com", "android.googleapis.com"),
             "apple-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _SOME_QUIC,
             19 * _KB, 1.3, 0.10, flows_median=40, intentional=False),
        _svc("Microsoft", ServiceCategory.OTHER,
             ("www.microsoft.com", "v10.events.data.microsoft.com",
              "settings-win.data.microsoft.com"),
             "euro-us-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _HTTPS,
             25 * _KB, 1.2, 0.15, flows_median=25, intentional=False),
        _svc("WindowsUpdate", ServiceCategory.OTHER,
             ("au.download.windowsupdate.com", "tlu.dl.delivery.mp.microsoft.com"),
             "euro-cloud", SelectionPolicy.DNS_RESOLVER_GEO, _HTTP,
             13 * _MB, 1.0, 0.005, flows_median=3, intentional=False),
        _svc("AdsTracking", ServiceCategory.OTHER,
             ("stats.g.doubleclick.net", "googleads.g.doubleclick.net",
              "ssl.google-analytics.com", "app-measurement.com"),
             "global-cdn", SelectionPolicy.DNS_RESOLVER_GEO, _SOME_QUIC,
             5 * _KB, 1.0, 0.15, flows_median=60, intentional=False),
        _svc("GenericWeb", ServiceCategory.OTHER,
             ("cdn{n}.example-news.com", "www.wikipedia.org", "site{n}.web-host.net",
              "assets{n}.shopfront.io"),
             "euro-us-cdn", SelectionPolicy.DNS_RESOLVER_GEO,
             ((L7Protocol.HTTPS, 0.74), (L7Protocol.HTTP, 0.26)),
             50 * _KB, 1.5, 0.08, flows_median=70, intentional=False),
        _svc("ChinesePlatforms", ServiceCategory.OTHER,
             ("news.qq.com", "api.netease.com", "log.umeng.com", "static.yximgs.com",
              "api.kuaishou.com"),
             "china-cloud", SelectionPolicy.DNS_RESOLVER_GEO, _HTTPS,
             100 * _KB, 1.4, 0.20, flows_median=25, intentional=False),
        _svc("ScooperNews", ServiceCategory.OTHER,
             ("api.scooper.news", "img.scooper.news"),
             "africa-local", SelectionPolicy.DNS_RESOLVER_GEO, _HTTPS,
             38 * _KB, 1.3, 0.10, flows_median=15, intentional=False),
        _svc("Shalltry", ServiceCategory.OTHER,
             ("api.shalltry.com", "cdn.shalltry.com"),
             "africa-local", SelectionPolicy.DNS_RESOLVER_GEO, _HTTPS,
             31 * _KB, 1.3, 0.12, flows_median=12, intentional=False),
        _svc("AfricanLocal", ServiceCategory.OTHER,
             ("www.local-bank-{code}.co", "news{n}.naija-portal.ng", "gov-portal{n}.cd"),
             "africa-local", SelectionPolicy.DNS_RESOLVER_GEO,
             ((L7Protocol.HTTPS, 0.7), (L7Protocol.HTTP, 0.3)),
             44 * _KB, 1.4, 0.12, flows_median=18, intentional=False),
        _svc("UsSaaS", ServiceCategory.OTHER,
             ("api.us-saas-{n}.com", "app.collaboration-tool.com", "sync.notes-cloud.com",
              "api.crm-platform.com"),
             "us-cloud-east", SelectionPolicy.ORIGIN, _HTTPS,
             60 * _KB, 1.3, 0.25, flows_median=48, intentional=False),
        _svc("UsWestApps", ServiceCategory.OTHER,
             ("cdn.game-platform-{n}.io", "api.photo-share.com", "edge.dev-tools.net"),
             "us-cloud-west", SelectionPolicy.ORIGIN, _HTTPS,
             90 * _KB, 1.3, 0.15, flows_median=16, intentional=False),
        _svc("Vpn", ServiceCategory.OTHER,
             ("vpn-gw{n}.corp-net.de", "tunnel{n}.private-link.com"),
             "euro-cloud", SelectionPolicy.ORIGIN,
             ((L7Protocol.OTHER_TCP, 1.0),),
             40 * _MB, 1.3, 0.60, flows_median=3, intentional=False),
        _svc("RtpCalls", ServiceCategory.OTHER,
             ("turn{n}.voip-relay.net",),
             "euro-us-cdn", SelectionPolicy.ANYCAST,
             ((L7Protocol.RTP, 0.85), (L7Protocol.OTHER_UDP, 0.15)),
             1.2 * _MB, 1.0, 0.90, flows_median=5, intentional=False),
        _svc("OtherUdp", ServiceCategory.OTHER,
             ("ntp{n}.pool-time.org", "relay{n}.game-net.io"),
             "euro-us-cdn", SelectionPolicy.DNS_RESOLVER_GEO,
             ((L7Protocol.OTHER_UDP, 1.0),),
             110 * _KB, 1.6, 0.50, flows_median=25, intentional=False),
    )
}


def service(name: str) -> Service:
    """Catalog lookup (raises KeyError)."""
    return SERVICES[name]
