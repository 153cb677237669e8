"""Serve load: 500 concurrent clients, zero errors, identical bytes.

The server's concurrency story is small on purpose — one event loop,
one inflight semaphore, copy-on-publish snapshots — and this test is
the proof that small is enough: 500 asyncio clients fetching the same
report through raw sockets all succeed, and because they all hit one
immutable snapshot, every response body is byte-for-byte the same.
QPS is held to a sanity floor here; ``benchmarks/check_regression.py``
guards the render hot path via ``test_micro_serve_request``.
"""

import asyncio
import time

import pytest

from repro.serve import ServerThread, SnapshotHub, snapshot_from_capture
from repro.stream import StreamConfig, run_stream_capture
from repro.traffic.workload import WorkloadConfig

N_CLIENTS = 500

CONFIG = StreamConfig(
    workload=WorkloadConfig(n_customers=48, days=3, seed=7, n_workers=1),
    window_days=1,
    compress=False,
)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A finished capture behind a running server (module-shared)."""
    capture_dir = tmp_path_factory.mktemp("load") / "cap"
    result = run_stream_capture(CONFIG, capture_dir)
    assert result.complete
    hub = SnapshotHub()
    hub.publish(snapshot_from_capture(capture_dir))
    server = ServerThread(hub)
    server.start()
    yield server, result.checkpoint.rollup_digest
    server.stop()


async def _fetch_raw(host: str, port: int, path: str):
    """One full HTTP exchange over a raw socket -> (status, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await reader.read()  # Connection: close -> read to EOF
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    return status, body


def test_500_concurrent_clients_zero_errors(served):
    server, digest = served

    async def storm():
        tasks = [
            _fetch_raw(server.host, server.port, "/reports/fig2")
            for _ in range(N_CLIENTS)
        ]
        begun = time.perf_counter()
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        return outcomes, time.perf_counter() - begun

    outcomes, wall_s = asyncio.run(storm())

    failures = [o for o in outcomes if isinstance(o, BaseException)]
    assert failures == [], f"{len(failures)} clients failed: {failures[:3]}"
    statuses = {status for status, _ in outcomes}
    assert statuses == {200}
    bodies = {body for _, body in outcomes}
    assert len(bodies) == 1, "the same snapshot served different bytes"
    assert len(outcomes) == N_CLIENTS

    qps = N_CLIENTS / wall_s
    # Sanity floor, not a perf gate (check_regression.py owns that):
    # 500 clients against a warm snapshot must clear 100 QPS anywhere.
    assert qps > 100, f"implausibly slow: {qps:.0f} QPS"

    # The server-side view must agree the run was clean.
    row = next(
        r for r in server.stats.rows() if r["endpoint"] == "reports/fig2"
    )
    assert row["errors"] == 0
    assert row["requests"] >= N_CLIENTS


def test_mixed_endpoint_storm_zero_errors(served):
    """Clients spread across every endpoint — still zero failures, and
    per-path responses stay identical (one snapshot, one rendering)."""
    server, digest = served
    paths = [
        "/reports/fig2", "/reports/table1", "/progress",
        "/scorecard", "/capabilities", "/reports",
    ]

    async def storm():
        tasks = [
            _fetch_raw(server.host, server.port, paths[i % len(paths)])
            for i in range(120)
        ]
        return await asyncio.gather(*tasks, return_exceptions=True)

    outcomes = asyncio.run(storm())
    failures = [o for o in outcomes if isinstance(o, BaseException)]
    assert failures == []
    by_path = {}
    for i, (status, body) in enumerate(outcomes):
        assert status == 200
        path = paths[i % len(paths)]
        if path != "/progress":  # progress embeds no stats, but compare anyway
            by_path.setdefault(path, body)
            assert body == by_path[path], f"{path} served differing bytes"


def test_backpressure_gate_still_answers_everyone(tmp_path):
    """max_inflight=1 serializes renders; 64 clients still all succeed."""
    capture_dir = tmp_path / "cap"
    run_stream_capture(CONFIG, capture_dir)
    hub = SnapshotHub()
    hub.publish(snapshot_from_capture(capture_dir))
    server = ServerThread(hub, max_inflight=1)
    server.start()
    try:
        async def storm():
            tasks = [
                _fetch_raw(server.host, server.port, "/reports/fig2")
                for _ in range(64)
            ]
            return await asyncio.gather(*tasks, return_exceptions=True)

        outcomes = asyncio.run(storm())
        assert [o for o in outcomes if isinstance(o, BaseException)] == []
        assert {status for status, _ in outcomes} == {200}
        assert len({body for _, body in outcomes}) == 1
    finally:
        server.stop()
