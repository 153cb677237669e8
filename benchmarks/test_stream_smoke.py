"""Streaming-capture smoke: kill+resume bit-identity plus throughput.

Run by the CI ``stream`` job. Unlike the figure benchmarks this does
not consume the shared session capture — the whole point is to produce
its own windows, kill the run between two of them, and prove the
resumed capture is bit-identical to the uninterrupted one.
"""

from __future__ import annotations

import time

from conftest import RESULTS_DIR

from repro.scenario import get_scenario
from repro.stream import (
    StreamRollup,
    render_telemetry,
    rollup_path,
    run_stream_capture,
)

SMOKE_CONFIG = get_scenario("baseline-geo").with_overrides(
    {
        "population.n_customers": 150,
        "workload.days": 3,
        "stream.window_days": 1,
        "execution.compress": False,
    }
).stream_config()

#: Deliberately loose floor (shared CI runners are noisy); a one-core
#: run measures ~10x this.
MIN_FLOWS_PER_S = 20_000


def test_stream_kill_resume_bit_identical(tmp_path):
    one_shot = run_stream_capture(SMOKE_CONFIG, tmp_path / "one")
    assert one_shot.complete

    killed = run_stream_capture(SMOKE_CONFIG, tmp_path / "resumed", max_windows=1)
    assert not killed.complete
    resumed = run_stream_capture(SMOKE_CONFIG, tmp_path / "resumed", resume=True)
    assert resumed.complete

    assert resumed.rollup.state_digest() == one_shot.rollup.state_digest()
    # the digest persisted for the *next* resume must agree too
    reloaded = StreamRollup.load(rollup_path(tmp_path / "resumed"))
    assert reloaded.state_digest() == one_shot.rollup.state_digest()


def test_stream_throughput_smoke(tmp_path):
    started = time.perf_counter()
    result = run_stream_capture(SMOKE_CONFIG, tmp_path / "cap")
    elapsed = time.perf_counter() - started
    flows = sum(t.flows for t in result.telemetry)
    throughput = flows / elapsed

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "stream_smoke.txt").write_text(
        render_telemetry(result.telemetry)
        + f"\nend-to-end: {flows:,} flows in {elapsed:.2f} s "
        f"({throughput:,.0f} flows/s)\n"
    )

    assert result.complete
    assert flows > 100_000
    assert throughput > MIN_FLOWS_PER_S, f"{throughput:,.0f} flows/s"
