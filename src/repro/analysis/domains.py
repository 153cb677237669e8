"""Domain-name utilities.

The paper aggregates server names by *second-level domain* for the
appendix tables (Tables 4–5) and notes (footnote 6) that it handles
two-label top-level domains such as ``co.uk``. This module implements
that extraction against a compact public-suffix list covering the
domains appearing in the reproduction.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

#: Domain groups of Table 2 (appendix tables add more second-level
#: domains). Lives here — below both the report layer and the stream
#: rollup — so the streamed Table 2 sketch and the frame path share one
#: definition.
TABLE2_DOMAIN_GROUPS: Dict[str, str] = {
    "captive.apple.com": r"^captive\.apple\.com$",
    "play.googleapis.com": r"^play\.googleapis\.com$",
    "*.nflxvideo.net": r"nflxvideo\.net$",
    "whatsapp.net": r"whatsapp\.net$",
    "googlevideo.com": r"googlevideo\.com$",
    "qq.com": r"qq\.com$",
    "scooper.news": r"scooper\.news$",
    "tiktokcdn.com": r"tiktokcdn\.com$",
}

#: Two-label public suffixes relevant to the generated domain space
#: (compact subset of the public-suffix list — extend as needed).
TWO_LABEL_SUFFIXES: Set[str] = {
    "co.uk",
    "org.uk",
    "ac.uk",
    "gov.uk",
    "co.za",
    "org.za",
    "com.ng",
    "gov.ng",
    "co.ke",
    "com.br",
    "com.cn",
    "net.cn",
    "org.cn",
    "co.jp",
    "com.au",
    "appspot.com",       # treated as a suffix: apps are the registrable unit
    "s3.amazonaws.com",
    "cloudfront.net",
}


def second_level_domain(domain: Optional[str]) -> Optional[str]:
    """The registrable domain (one label below the public suffix).

    >>> second_level_domain("rr4---sn-x.googlevideo.com")
    'googlevideo.com'
    >>> second_level_domain("news.bbc.co.uk")
    'bbc.co.uk'
    >>> second_level_domain("twitter-any.s3.amazonaws.com")
    'twitter-any.s3.amazonaws.com'
    """
    if not domain:
        return None
    domain = domain.strip(".").lower()
    labels = domain.split(".")
    if len(labels) < 2:
        return domain
    # three-label suffixes first (e.g. s3.amazonaws.com)
    if len(labels) >= 4 and ".".join(labels[-3:]) in TWO_LABEL_SUFFIXES:
        return ".".join(labels[-4:])
    if len(labels) >= 3 and ".".join(labels[-2:]) in TWO_LABEL_SUFFIXES:
        return ".".join(labels[-3:])
    if ".".join(labels[-2:]) in TWO_LABEL_SUFFIXES:
        return domain
    if ".".join(labels[-3:]) in TWO_LABEL_SUFFIXES:
        return domain
    return ".".join(labels[-2:])
