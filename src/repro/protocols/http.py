"""Plain-text HTTP/1.1 request/response encoding and Host extraction.

12.1 % of the paper's traffic volume is unencrypted HTTP (Table 1),
largely Sky video and Microsoft software updates in Ireland/U.K.; the
probe annotates those flows with the ``Host`` header.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

_CRLF = b"\r\n"


@dataclass
class Request:
    """A parsed HTTP request line + headers."""

    method: str
    path: str
    version: str
    headers: Dict[str, str]

    @property
    def host(self) -> Optional[str]:
        return self.headers.get("host")


def encode_request(
    host: str,
    path: str = "/",
    method: str = "GET",
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Encode an HTTP/1.1 request with a Host header.

    >>> req = parse_request(encode_request("example.com", "/index.html"))
    >>> req.host
    'example.com'
    """
    lines = [f"{method} {path} HTTP/1.1".encode("ascii"), b"Host: " + host.encode("ascii")]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}".encode("ascii"))
    return _CRLF.join(lines) + _CRLF * 2


def encode_response(body_length: int, status: int = 200, reason: str = "OK") -> bytes:
    """Encode a response with ``body_length`` placeholder body bytes."""
    if body_length < 0:
        raise ValueError("body_length must be non-negative")
    head = (
        f"HTTP/1.1 {status} {reason}".encode("ascii")
        + _CRLF
        + f"Content-Length: {body_length}".encode("ascii")
        + _CRLF
        + b"Content-Type: application/octet-stream"
        + _CRLF * 2
    )
    return head + b"\x00" * body_length


def parse_request(data: bytes) -> Optional[Request]:
    """Parse a request head; returns None when ``data`` is not HTTP."""
    head, _, _ = data.partition(_CRLF * 2)
    lines = head.split(_CRLF)
    if not lines:
        return None
    parts = lines[0].split(b" ")
    if len(parts) != 3 or not parts[2].startswith(b"HTTP/"):
        return None
    method = parts[0].decode("ascii", errors="replace")
    if not method.isalpha() or not method.isupper():
        return None
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(b":")
        if not sep:
            continue
        headers[name.strip().decode("ascii", errors="replace").lower()] = (
            value.strip().decode("ascii", errors="replace")
        )
    return Request(
        method=method,
        path=parts[1].decode("ascii", errors="replace"),
        version=parts[2].decode("ascii", errors="replace"),
        headers=headers,
    )


def looks_like_http(data: bytes) -> bool:
    """Cheap method-prefix check used by the DPI."""
    return data[:8].split(b" ")[0] in (
        b"GET",
        b"POST",
        b"PUT",
        b"HEAD",
        b"DELETE",
        b"OPTIONS",
        b"CONNECT",
        b"PATCH",
    )
