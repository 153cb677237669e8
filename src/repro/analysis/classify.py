"""Regex-based service classification (the paper's Table 3).

The paper maps server domains to services with manually curated regular
expressions. We reproduce the Table 3 list; a few entries contain OCR
artifacts in the available text (e.g. ``bingcoms``, ``tiktokch``,
``db.tts``) which we restore to their obvious intent, and patterns with
a leading dot ("subdomain of") are translated to ``(^|\\.)…$`` anchors.

Order matters where pattern sets overlap (Office365 lists ``skype`` and
``lync``); we keep the table's category layout but place Chat/Skype
before Work/Office365, as the paper's pipeline evidently must.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.traffic.services import ServiceCategory


#: Figure 7 category axis, shared by the frame and rollup paths.
FIG7_CATEGORIES = (
    ServiceCategory.AUDIO,
    ServiceCategory.CHAT,
    ServiceCategory.SEARCH,
    ServiceCategory.SOCIAL,
    ServiceCategory.VIDEO,
    ServiceCategory.WORK,
)


@dataclass(frozen=True)
class Rule:
    """One service's classification rule."""

    service: str
    category: ServiceCategory
    patterns: Tuple[str, ...]


def _dot(suffix: str) -> str:
    """Translate a Table 3 leading-dot pattern: subdomain-of ``suffix``."""
    return r"(^|\.)" + re.escape(suffix) + "$"


def _end(suffix: str) -> str:
    """Pattern anchored at the end of the domain."""
    return re.escape(suffix) + "$"


#: Table 3, in evaluation order.
TABLE3_RULES: Tuple[Rule, ...] = (
    Rule("Spotify", ServiceCategory.AUDIO, (_end("spotify.com"), _dot("scdn.com"))),
    Rule(
        "Youtube",
        ServiceCategory.VIDEO,
        (
            _end("googlevideo.com"),
            _dot("ytimg.com"),
            _dot("youtube.com"),
            _dot("gvt1.com"),
            _dot("gvt2.com"),
            _dot("youtube-nocookie.com"),
        ),
    ),
    Rule(
        "Netflix",
        ServiceCategory.VIDEO,
        (r"netflix", r"nflxext\.", r"nflximg", r"nflxvideo", r"nflxso\."),
    ),
    Rule("Sky", ServiceCategory.VIDEO, (_dot("sky.com"),)),
    Rule(
        "Primevideo",
        ServiceCategory.VIDEO,
        (
            _end("amazonvideo.com"),
            _end("primevideo.com"),
            _end("pv-cdn.net"),
            _end("atv-ps.amazon.com"),
            _end("atv-ext.amazon.com"),
            _end("atv-ext-eu.amazon.com"),
            _end("atv-ext-fe.amazon.com"),
            r"atv-ps-eu\.amazon",
            r"atv-ps-fe\.amazon",
        ),
    ),
    Rule(
        "Facebook",
        ServiceCategory.SOCIAL,
        (
            _end("facebook.com"),
            _end("fbcdn.net"),
            _end("facebook.net"),
            r"^fbcdn",
            r"^fbstatic",
            r"^fbexternal",
            _end("fbsbx.com"),
            _end("fb.com"),
        ),
    ),
    Rule(
        "Twitter",
        ServiceCategory.SOCIAL,
        (
            r"\.twitter",
            r"\.twimg",
            r"^twitter\.com$",
            r"twitter\.com\.edgesuite\.net",
            r"twitter-any\.s3\.amazonaws\.com",
            r"twitter-blog\.s3\.amazonaws\.com",
        ),
    ),
    Rule(
        "Linkedin",
        ServiceCategory.SOCIAL,
        (_end("linkedin.com"), _end("licdn.com"), _end("lnkd.in")),
    ),
    Rule(
        "Instagram",
        ServiceCategory.SOCIAL,
        (_dot("instagram.com"), _end("cdninstagram.com"), r"igcdn"),
    ),
    Rule(
        "Tiktok",
        ServiceCategory.SOCIAL,
        (_end("tiktok.com"), r"tiktokcdn", _end("tiktokv.com")),
    ),
    # Chat before Work so Skype wins over Office365's 'skype' pattern.
    Rule("Whatsapp", ServiceCategory.CHAT, (_dot("whatsapp.com"), _dot("whatsapp.net"))),
    Rule("Telegram", ServiceCategory.CHAT, (_dot("telegram.org"),)),
    Rule(
        "Snapchat",
        ServiceCategory.CHAT,
        (
            _dot("snapchat.com"),
            _end("feelinsonice.appspot.com"),
            _end("feelinsonice-hrd.appspot.com"),
            _end("feelinsonice.l.google.com"),
        ),
    ),
    Rule(
        "Skype",
        ServiceCategory.CHAT,
        (_end("skypeassets.com"), _dot("skype.com"), _dot("skype.net")),
    ),
    Rule(
        "Wechat",
        ServiceCategory.CHAT,
        (_end("wechat.com"), _end("weixin.qq.com"), _end("wxs.qq.com")),
    ),
    Rule("Google", ServiceCategory.SEARCH, (r"^www\.google", r"^google\.")),
    Rule("Bing", ServiceCategory.SEARCH, (_end("bing.com"),)),
    Rule(
        "Yahoo",
        ServiceCategory.SEARCH,
        (_dot("yahoo.com"), _dot("yahoo.net"), _dot("yimg.com")),
    ),
    Rule("Duckduck", ServiceCategory.SEARCH, (r"\.?duckduckgo\.",)),
    Rule(
        "Office365",
        ServiceCategory.WORK,
        (
            _end("sharepoint.com"),
            _end("office.net"),
            _end("onenote.com"),
            _end("office365.com"),
            _end("office.com"),
            r"teams\.microsoft",
            r"teams\.office",
            r"lync",
            r"skype",
            _end("live.com"),
        ),
    ),
    Rule(
        "Gsuite",
        ServiceCategory.WORK,
        (
            _end("googledrive.com"),
            _dot("drive.google.com"),
            _dot("docs.google.com"),
            _dot("sheets.google.com"),
            _dot("slides.google.com"),
            _dot("takeout.google.com"),
        ),
    ),
    Rule("Dropbox", ServiceCategory.WORK, (r"dropbox", _end("db.tt"))),
)


class ServiceClassifier:
    """Compiled Table 3 classifier with per-domain memoization."""

    def __init__(self, rules: Sequence[Rule] = TABLE3_RULES) -> None:
        self.rules = list(rules)
        self._compiled: List[Tuple[Rule, re.Pattern]] = [
            (rule, re.compile("|".join(f"(?:{p})" for p in rule.patterns)))
            for rule in self.rules
        ]
        self._cache: Dict[str, Optional[Rule]] = {}

    def classify(self, domain: Optional[str]) -> Optional[Rule]:
        """The first rule matching ``domain`` (None when unmatched)."""
        if not domain:
            return None
        domain = domain.lower()
        if domain in self._cache:
            return self._cache[domain]
        hit: Optional[Rule] = None
        for rule, pattern in self._compiled:
            if pattern.search(domain):
                hit = rule
                break
        self._cache[domain] = hit
        return hit

    def service_of(self, domain: Optional[str]) -> Optional[str]:
        """Service name for ``domain``, or None."""
        rule = self.classify(domain)
        return rule.service if rule else None

    def classify_pool(
        self, domains: Sequence[str]
    ) -> Tuple[np.ndarray, List[str]]:
        """Classify a domain pool.

        Returns ``(service_idx_per_domain, service_names)`` where the
        index is -1 for unmatched domains — apply it to a frame's
        ``domain_idx`` column to label every flow in O(pool) regex work.
        """
        names = [rule.service for rule in self.rules]
        name_index = {name: i for i, name in enumerate(names)}
        out = np.full(len(domains), -1, dtype=np.int16)
        for i, domain in enumerate(domains):
            service = self.service_of(domain)
            if service is not None:
                out[i] = name_index[service]
        return out, names

    def label_frame(self, frame) -> Tuple[np.ndarray, List[str]]:
        """Per-flow service index for a :class:`FlowFrame`.

        Runs the regexes over the (small) domain pool only, then gathers
        per flow. Unmatched/absent domains get -1.
        """
        pool_labels, names = self.classify_pool(frame.domains)
        per_flow = np.full(len(frame), -1, dtype=np.int16)
        has_domain = frame.domain_idx >= 0
        per_flow[has_domain] = pool_labels[frame.domain_idx[has_domain]]
        return per_flow, names
