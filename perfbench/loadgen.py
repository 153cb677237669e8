"""Open-loop HTTP load generator for the serve path.

Independent dashboard readers make an open loop: request ``i`` is due at
``start + i / RATE`` whatever happened to earlier requests, and its
latency is timed from that due time, so a server stall also shows in
the requests that queued behind it. At most ``CONNECTIONS`` requests are
in flight (one thread each; the server closes every connection after
its reply). ``late`` is how far behind its schedule the generator sent.

The endpoint mix cycles through ``MIX`` in a seed-shuffled order, the
whole list once per cycle, so every run asks for the same composition:
cheap endpoints 40%, the scorecard 30%, fig8b 10% and fig7, the slowest
report, 20%. On an idle server the median then falls inside the
scorecard's latencies and p90 in the middle of fig7's, not in a gap
between two endpoints' latencies where it would jump from run to run.
"""

from __future__ import annotations

import http.client
import random
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

MIX = (
    "/progress",
    "/reports/table1",
    "/reports/fig2",
    "/reports/fig12",
    "/scorecard",
    "/scorecard",
    "/scorecard",
    "/reports/fig8b",
    "/reports/fig7",
    "/reports/fig7",
)
RATE = 40.0
"""Requests per second. The mix costs ~3.5 ms of server time per request
on an idle snapshot, so 40/s keeps the server well under saturation even
while it shares the producer's interpreter."""
CONNECTIONS = 2
TIMEOUT_S = 10.0

_ADDRESS = re.compile(rb"http://([0-9.]+):([0-9]+)")


@dataclass
class Reply:
    index: int
    path: str
    due: float
    sent: float
    done: float
    status: int = 0
    digest: str = ""
    windows: str = ""
    error: str = ""

    @property
    def latency_s(self) -> float:
        return self.done - self.due


def schedule(seed: int, count: int) -> List[str]:
    """``count`` request paths: seed-shuffled cycles over ``MIX``."""
    rng = random.Random(seed)
    paths: List[str] = []
    while len(paths) < count:
        cycle = list(MIX)
        rng.shuffle(cycle)
        paths.extend(cycle)
    return paths[:count]


def get(address: Tuple[str, int], path: str) -> Tuple[int, dict, bytes]:
    conn = http.client.HTTPConnection(*address, timeout=TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        return response.status, dict(response.getheaders()), body
    finally:
        conn.close()


def wait_for_address(log: Path, alive: Callable[[], bool],
                     timeout_s: float) -> Optional[Tuple[str, int]]:
    """The ``http://host:port`` the server printed to its log."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline and alive():
        match = _ADDRESS.search(log.read_bytes()) if log.exists() else None
        if match:
            return match.group(1).decode(), int(match.group(2))
        time.sleep(0.01)
    return None


def wait_ready(address: Tuple[str, int], paths, alive: Callable[[], bool],
               timeout_s: float) -> bool:
    """Poll each endpoint until it answers 200 (these are not counted)."""
    deadline = time.monotonic() + timeout_s
    pending = list(dict.fromkeys(paths))
    while pending and time.monotonic() < deadline and alive():
        try:
            status, _headers, _body = get(address, pending[0])
        except (OSError, http.client.HTTPException):
            status = 0
        if status == 200:
            pending.pop(0)
        else:
            time.sleep(0.2)
    return not pending


class OpenLoop:
    """Send ``paths`` at ``RATE`` from two threads until stopped.

    The schedule stops at the first reply that reports the capture
    complete (``until_complete``), after the last path, or once the
    server process is gone (``alive``). Requests due after the stop are
    never sent; every request sent is counted.
    """

    def __init__(self, address: Tuple[str, int], paths: List[str],
                 until_complete: bool, alive: Callable[[], bool]) -> None:
        self.address = address
        self.paths = paths
        self.until_complete = until_complete
        self.alive = alive
        self.replies: List[Reply] = []
        self.stop_at = float("inf")
        self._next = 0
        self._lock = threading.Lock()

    def run(self) -> List[Reply]:
        self.start = time.perf_counter() + 0.01
        threads = [
            threading.Thread(target=self._worker, name=f"loadgen-{i}")
            for i in range(CONNECTIONS - 1)
        ]
        for thread in threads:
            thread.start()
        self._worker()
        for thread in threads:
            thread.join()
        self.replies.sort(key=lambda reply: reply.index)
        return self.replies

    def _claim(self) -> Optional[Tuple[int, float]]:
        with self._lock:
            index = self._next
            if index >= len(self.paths) or not self.alive():
                return None
            due = self.start + index / RATE
            if due > self.stop_at:
                return None
            self._next += 1
            return index, due

    def _worker(self) -> None:
        while True:
            claim = self._claim()
            if claim is None:
                return
            index, due = claim
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if due > self.stop_at:
                return
            path = self.paths[index]
            reply = Reply(index, path, due, time.perf_counter(), 0.0)
            try:
                status, headers, _body = get(self.address, path)
                reply.status = status
                reply.digest = headers.get("X-Capture-Digest", "")
                reply.windows = headers.get("X-Capture-Windows", "")
            except (OSError, http.client.HTTPException) as exc:
                reply.error = type(exc).__name__
            reply.done = time.perf_counter()
            with self._lock:
                self.replies.append(reply)
                if self.until_complete and _complete(reply.windows):
                    self.stop_at = min(self.stop_at, reply.done)


def _complete(windows: str) -> bool:
    done, _, total = windows.partition("/")
    return bool(total) and done == total
