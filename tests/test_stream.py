"""The streaming capture pipeline: producer, store, rollups, resume.

The contracts under test:

* a streamed capture is a pure function of ``StreamConfig`` content —
  killing and resuming it reproduces the uninterrupted run bit for bit
  (same rollup digest, same spilled windows);
* rollup ``update``/``merge`` are associative, and the rollup-served
  figure paths agree with the frame-based ones;
* peak memory stays roughly flat while capture length grows 10x.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.dataset import _ARRAY_FIELDS, FlowFrame
from repro.analysis.reports import (
    fig2_country,
    fig3_protocol_country,
    fig4_diurnal,
    fig5_volumes,
    fig8_satellite_rtt,
    fig9_ground_rtt,
)
from repro.cache import config_cache_key, stream_capture_key
from repro.cli import main
from repro.parallel import ShardWorkerPool
from repro.stream import (
    Checkpoint,
    FlowStore,
    HistFamily,
    StreamConfig,
    StreamRollup,
    WindowEntry,
    load_checkpoint,
    plan_windows,
    render_telemetry,
    rollup_path,
    run_stream_capture,
    WindowTelemetry,
)
from repro.stream.checkpoint import write_checkpoint
from repro.traffic.workload import WorkloadConfig, WorkloadGenerator
from test_report_oracle import fig2_oracle, fig3_oracle

REPO_ROOT = Path(__file__).resolve().parent.parent
TINY = WorkloadConfig(n_customers=80, days=3, seed=9)


def _assert_frames_identical(a: FlowFrame, b: FlowFrame) -> None:
    assert len(a) == len(b)
    for name in _ARRAY_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, f"{name}: {x.dtype} != {y.dtype}"
        assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), f"{name} differs"


@pytest.fixture(scope="module")
def tiny_frames():
    """Three one-day frames of the TINY streamed capture + their union."""
    config = StreamConfig(workload=TINY, window_days=1)
    from repro.stream import WindowedProducer

    generator = WorkloadGenerator(TINY)
    producer = WindowedProducer(generator, 1)
    with ShardWorkerPool(generator, 1) as pool:
        frames = [producer.generate_window(w, pool) for w in producer.windows]
    return frames


# -- window planning --------------------------------------------------------


def test_plan_windows_covers_days_contiguously():
    windows = plan_windows(10, 3)
    assert [(w.day_lo, w.day_hi) for w in windows] == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert [w.index for w in windows] == [0, 1, 2, 3]
    assert len(windows[-1]) == 1  # the last window absorbs the remainder


def test_plan_windows_single_window():
    assert [(w.day_lo, w.day_hi) for w in plan_windows(2, 5)] == [(0, 2)]


def test_plan_windows_rejects_bad_inputs():
    with pytest.raises(ValueError):
        plan_windows(0, 1)
    with pytest.raises(ValueError):
        plan_windows(5, 0)


def test_stream_capture_key_covers_window_plan():
    assert stream_capture_key(TINY, 1) != stream_capture_key(TINY, 2)
    other_seed = WorkloadConfig(n_customers=80, days=3, seed=10)
    assert stream_capture_key(TINY, 1) != stream_capture_key(other_seed, 1)
    # and it is not the one-shot capture key: the sampling plan differs
    assert stream_capture_key(TINY, 1) != config_cache_key(TINY)


# -- windowed producer ------------------------------------------------------


def test_windowed_generation_is_deterministic(tiny_frames):
    from repro.stream import WindowedProducer

    generator = WorkloadGenerator(TINY)
    producer = WindowedProducer(generator, 1)
    with ShardWorkerPool(generator, 1) as pool:
        again = [producer.generate_window(w, pool) for w in producer.windows]
    for a, b in zip(tiny_frames, again):
        _assert_frames_identical(a, b)


def test_window_days_stay_in_range(tiny_frames):
    for i, frame in enumerate(tiny_frames):
        assert len(frame) > 0
        assert frame.day.min() == i
        assert frame.day.max() == i


def test_worker_count_does_not_change_window_output(tiny_frames):
    from repro.stream import WindowedProducer

    generator = WorkloadGenerator(TINY)
    producer = WindowedProducer(generator, 1)
    with ShardWorkerPool(generator, 4) as pool:
        parallel = producer.generate_window(producer.windows[1], pool)
    _assert_frames_identical(tiny_frames[1], parallel)


# -- flow store -------------------------------------------------------------


def _store_pools(frame):
    return {
        "countries": frame.countries,
        "beams": frame.beams,
        "services": frame.services,
        "domains": frame.domains,
        "sites": frame.sites,
        "resolvers": frame.resolvers,
    }


def test_store_round_trip_and_projection(tmp_path, tiny_frames):
    frame = tiny_frames[0]
    store = FlowStore.create(
        tmp_path / "cap",
        pools=_store_pools(frame),
        windows=[WindowEntry(0, 0, 1)],
        capture_key="k" * 24,
        config={},
        compress=True,
    )
    spilled = store.write_window(0, frame)
    assert spilled > 0
    assert store.bytes_spilled() == spilled
    _assert_frames_identical(store.read_window(0), frame)
    projected = store.read_window(0, columns=["bytes_down", "country_idx"])
    assert set(projected) == {"bytes_down", "country_idx"}
    assert np.array_equal(projected["bytes_down"], frame.bytes_down)

    reopened = FlowStore.open(tmp_path / "cap")
    assert reopened.capture_key == "k" * 24
    assert reopened.stored_window_count() == 1
    windows = list(reopened.iter_windows())
    assert len(windows) == 1
    _assert_frames_identical(windows[0][1], frame)


def test_store_rejects_mismatched_pools(tmp_path, tiny_frames):
    frame = tiny_frames[0]
    pools = _store_pools(frame)
    pools["countries"] = list(pools["countries"]) + ["Atlantis"]
    store = FlowStore.create(
        tmp_path / "cap",
        pools=pools,
        windows=[WindowEntry(0, 0, 1)],
        capture_key="k" * 24,
        config={},
    )
    with pytest.raises(ValueError, match="countries"):
        store.write_window(0, frame)


def test_store_iteration_skips_unwritten_windows(tmp_path, tiny_frames):
    store = FlowStore.create(
        tmp_path / "cap",
        pools=_store_pools(tiny_frames[0]),
        windows=[WindowEntry(i, i, i + 1) for i in range(3)],
        capture_key="k" * 24,
        config={},
    )
    store.write_window(1, tiny_frames[1])
    indices = [index for index, _ in store.iter_windows()]
    assert indices == [1]


# -- rollup sketches --------------------------------------------------------


def test_histfamily_rejects_bad_edges():
    with pytest.raises(ValueError):
        HistFamily(np.array([1.0]), 2)
    with pytest.raises(ValueError):
        HistFamily(np.array([1.0, 1.0, 2.0]), 2)


def test_histfamily_underflow_overflow_and_nan():
    hist = HistFamily(np.array([0.0, 1.0, 2.0]), 1)
    rows = np.zeros(5, dtype=np.int64)
    hist.update(rows, np.array([-1.0, 0.5, 1.5, 9.0, np.nan]))
    assert hist.under[0] == 1 and hist.over[0] == 1
    assert hist.total(0) == 4  # the NaN was dropped, not binned
    assert hist.cdf_at(0, 1.0) == pytest.approx(0.5)
    assert hist.ccdf_at(0, 1.0) == pytest.approx(0.5)


def test_histfamily_empty_row_is_nan():
    hist = HistFamily(np.array([0.0, 1.0]), 2)
    assert np.isnan(hist.cdf_at(1, 0.5))
    assert np.isnan(hist.quantile(1, 0.5))


def test_histfamily_merge_requires_same_binning():
    a = HistFamily(np.array([0.0, 1.0, 2.0]), 1)
    b = HistFamily(np.array([0.0, 2.0, 4.0]), 1)
    with pytest.raises(ValueError):
        a.merge(b)


def test_rollup_update_rejects_foreign_pools(tiny_frames):
    rollup = StreamRollup(["Nowhere"], tiny_frames[0].services)
    with pytest.raises(ValueError):
        rollup.update(tiny_frames[0])


def test_rollup_merge_matches_sequential_updates(tiny_frames):
    sequential = StreamRollup.for_frame(tiny_frames[0])
    for frame in tiny_frames:
        sequential.update(frame)

    parts = [StreamRollup.for_frame(f).update(f) for f in tiny_frames]
    merged = parts[0]
    for part in parts[1:]:
        merged.merge(part)

    assert merged.state_digest() == sequential.state_digest()
    assert merged.flows_total == sum(len(f) for f in tiny_frames)
    assert merged.windows_folded == 3


def test_rollup_merge_rejects_different_pools(tiny_frames):
    a = StreamRollup.for_frame(tiny_frames[0])
    b = StreamRollup(["Nowhere"], tiny_frames[0].services)
    with pytest.raises(ValueError):
        a.merge(b)


def test_rollup_save_load_round_trip(tmp_path, tiny_frames):
    rollup = StreamRollup.for_frame(tiny_frames[0]).update(tiny_frames[0])
    path = tmp_path / "rollup.npz"
    rollup.save(path)
    loaded = StreamRollup.load(path)
    assert loaded.state_digest() == rollup.state_digest()
    assert loaded.flows_total == rollup.flows_total
    assert loaded.customers_c().sum() == rollup.customers_c().sum()


def test_rollup_totals_match_frame(tiny_frames):
    frame = tiny_frames[0]
    rollup = StreamRollup.for_frame(frame).update(frame)
    assert rollup.flows_total == len(frame)
    assert rollup.volume_c().sum() == pytest.approx(
        frame.bytes_total().sum(), rel=1e-12
    )
    assert rollup.vol_clh.sum() == pytest.approx(frame.bytes_total().sum(), rel=1e-9)
    assert rollup.customers_c().sum() == len(np.unique(frame.customer_id))


# -- rollup-served figures vs the frame paths -------------------------------


def test_fig2_from_rollup_matches_frame(small_frame, small_rollup):
    from_frame = fig2_oracle(small_frame)
    from_roll = fig2_country.from_rollup(small_rollup)
    assert [r[0] for r in from_roll.rows] == [r[0] for r in from_frame.rows]
    for (_, va, ca), (_, vb, cb) in zip(from_roll.rows, from_frame.rows):
        assert va == pytest.approx(vb, rel=1e-9)
        assert ca == pytest.approx(cb, rel=1e-9)


def test_fig3_from_rollup_matches_frame(small_frame, small_rollup):
    from_frame = fig3_oracle(small_frame)
    from_roll = fig3_protocol_country.from_rollup(small_rollup)
    assert set(from_roll.shares) == set(from_frame.shares)
    for country, shares in from_roll.shares.items():
        for label, value in shares.items():
            assert value == pytest.approx(from_frame.shares[country][label], abs=1e-6)


def test_fig4_from_rollup_is_a_normalized_diurnal_curve(small_frame, small_rollup):
    result = fig4_diurnal.from_rollup(small_rollup)
    for country, curve in result.curves.items():
        assert curve.shape == (24,)
        assert curve.max() == pytest.approx(1.0)
        assert curve.min() >= 0.0
    # the shape tracks the frame-based robust curve (different
    # winsorization, same day-median damping)
    frame_result = fig4_diurnal.compute(small_frame)
    for country in ("Spain", "Congo"):
        rho = np.corrcoef(
            result.curves[country], frame_result.curves[country]
        )[0, 1]
        assert rho > 0.9, country


def test_fig5_from_rollup_matches_frame(small_frame, small_rollup):
    from_frame = fig5_volumes.compute(small_frame)
    from_roll = fig5_volumes.from_rollup(small_rollup)
    for country in from_roll.flow_counts:
        # idle fraction is served by an exact counter
        assert from_roll.idle_fraction(country) == pytest.approx(
            from_frame.idle_fraction(country), abs=1e-12
        )
        # 1/10 GB sit exactly on decade bin edges, so the heavy-hitter
        # fractions only differ by samples exactly at the threshold
        assert from_roll.heavy_downloader_pct(country) == pytest.approx(
            from_frame.heavy_downloader_pct(country), abs=0.05
        )
        assert from_roll.heavy_uploader_pct(country) == pytest.approx(
            from_frame.heavy_uploader_pct(country), abs=0.05
        )
        # medians interpolate inside a 12-per-decade log bin (~21%)
        assert from_roll.median_flows(country) == pytest.approx(
            from_frame.median_flows(country), rel=0.25
        )


def test_fig8_from_rollup_matches_frame(small_frame, small_rollup):
    from_frame = fig8_satellite_rtt.compute_fig8a(small_frame)
    from_roll = fig8_satellite_rtt.from_rollup(small_rollup)
    for country in from_roll.samples:
        # the tracked minimum is exact
        assert from_roll.minimum_ms(country) == pytest.approx(
            from_frame.minimum_ms(country), abs=1e-9
        )
        for period in ("night", "peak"):
            got = from_roll.quartiles_ms(country, period)
            want = from_frame.quartiles_ms(country, period)
            assert np.all(np.abs(got - want) <= 25.0 + 1e-9), (country, period)
            assert from_roll.fraction_under(country, period, 1000.0) == pytest.approx(
                from_frame.fraction_under(country, period, 1000.0), abs=0.02
            )
    rendered = fig8_satellite_rtt.render(from_roll)
    assert "Figure 8a" in rendered
    assert "Figure 8b" not in rendered  # per-beam medians are frame-only


def test_fig9_from_rollup_matches_frame(small_frame, small_rollup):
    from_frame = fig9_ground_rtt.compute(small_frame)
    from_roll = fig9_ground_rtt.from_rollup(small_rollup)
    for country in from_roll.samples:
        assert from_roll.median_ms(country) == pytest.approx(
            from_frame.median_ms(country), rel=0.11
        )
        assert from_roll.fraction_below(country, 40.0) == pytest.approx(
            from_frame.fraction_below(country, 40.0), abs=0.03
        )
        for threshold, share in from_frame.volume_weighted_share_below[country].items():
            assert from_roll.volume_weighted_share_below[country][
                threshold
            ] == pytest.approx(share, abs=0.03)
    assert "Figure 9" in fig9_ground_rtt.render(from_roll)


# -- checkpoint/resume ------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    checkpoint = Checkpoint(
        capture_key="k" * 24,
        n_windows=3,
        windows_done=1,
        rollup_digest="d" * 64,
        telemetry=[
            WindowTelemetry(
                window=0, day_lo=0, day_hi=1, flows=10,
                gen_seconds=0.5, fold_seconds=0.1,
                bytes_spilled=1000, peak_rss_mb=50.0,
            )
        ],
    )
    write_checkpoint(tmp_path, checkpoint)
    loaded = load_checkpoint(tmp_path)
    assert loaded is not None
    assert not loaded.complete
    assert loaded.capture_key == checkpoint.capture_key
    assert loaded.windows_done == 1
    assert loaded.telemetry[0].flows == 10
    assert loaded.telemetry[0].flows_per_s == pytest.approx(10 / 0.6)


def test_load_checkpoint_absent_is_none(tmp_path):
    assert load_checkpoint(tmp_path) is None


def test_stream_capture_kill_and_resume_bit_identical(tmp_path):
    config = StreamConfig(workload=TINY, window_days=1, compress=False)

    one = run_stream_capture(config, tmp_path / "one")
    assert one.complete
    assert one.checkpoint.windows_done == 3

    # simulate a kill after the first committed window, then resume
    part = run_stream_capture(config, tmp_path / "two", max_windows=1)
    assert not part.complete
    assert part.checkpoint.windows_done == 1
    resumed = run_stream_capture(config, tmp_path / "two", resume=True)
    assert resumed.complete

    assert resumed.rollup.state_digest() == one.rollup.state_digest()
    assert resumed.checkpoint.rollup_digest == one.checkpoint.rollup_digest
    for index in range(3):
        _assert_frames_identical(
            one.store.read_window(index), resumed.store.read_window(index)
        )
    # and the persisted rollup equals the in-memory one
    reloaded = StreamRollup.load(rollup_path(tmp_path / "two"))
    assert reloaded.state_digest() == one.rollup.state_digest()


def test_resume_on_complete_capture_is_noop(tmp_path):
    config = StreamConfig(workload=TINY, window_days=1, compress=False)
    first = run_stream_capture(config, tmp_path / "cap")
    again = run_stream_capture(config, tmp_path / "cap", resume=True)
    assert again.complete
    assert again.rollup.state_digest() == first.rollup.state_digest()
    assert len(again.telemetry) == 3  # no window was re-produced


def test_fresh_run_refuses_existing_capture_dir(tmp_path):
    config = StreamConfig(workload=TINY, window_days=1, compress=False)
    run_stream_capture(config, tmp_path / "cap", max_windows=1)
    with pytest.raises(FileExistsError):
        run_stream_capture(config, tmp_path / "cap")


def test_resume_requires_checkpoint(tmp_path):
    config = StreamConfig(workload=TINY, window_days=1, compress=False)
    with pytest.raises(FileNotFoundError):
        run_stream_capture(config, tmp_path / "void", resume=True)


def test_resume_rejects_different_config(tmp_path):
    run_stream_capture(
        StreamConfig(workload=TINY, window_days=1, compress=False),
        tmp_path / "cap",
        max_windows=1,
    )
    other = StreamConfig(
        workload=WorkloadConfig(n_customers=80, days=3, seed=10),
        window_days=1,
        compress=False,
    )
    with pytest.raises(ValueError, match="different stream config"):
        run_stream_capture(other, tmp_path / "cap", resume=True)


def test_resume_heals_tampered_rollup(tmp_path):
    """A rollup that disagrees with the checkpoint digest (tampered, or
    left ahead by a crash between save and commit) is rebuilt from the
    committed windows — and the rebuild is bit-identical."""
    config = StreamConfig(workload=TINY, window_days=1, compress=False)
    baseline = run_stream_capture(config, tmp_path / "clean")
    run_stream_capture(config, tmp_path / "cap", max_windows=1)
    # tamper with the persisted rollup behind the checkpoint's back
    rollup = StreamRollup.load(rollup_path(tmp_path / "cap"))
    rollup.flows_total += 1
    rollup.save(rollup_path(tmp_path / "cap"))
    from repro.faults import FaultInjector

    injector = FaultInjector(None)  # fresh stats, no faults armed
    resumed = run_stream_capture(
        config, tmp_path / "cap", resume=True, faults=injector
    )
    assert resumed.complete
    assert resumed.rollup.state_digest() == baseline.rollup.state_digest()
    assert resumed.fault_stats.rollup_rebuilds == 1


def test_resume_rejects_unrecoverable_rollup(tmp_path):
    """When the rollup digest mismatches AND a committed window is gone,
    the re-fold cannot heal the capture: diagnostic CaptureError."""
    config = StreamConfig(workload=TINY, window_days=1, compress=False)
    run_stream_capture(config, tmp_path / "cap", max_windows=1)
    rollup = StreamRollup.load(rollup_path(tmp_path / "cap"))
    rollup.flows_total += 1
    rollup.save(rollup_path(tmp_path / "cap"))
    store = FlowStore.open(tmp_path / "cap")
    store.window_path(store.windows[0].index).write_bytes(b"\x00" * 64)
    with pytest.raises(ValueError, match="corrupt"):
        run_stream_capture(config, tmp_path / "cap", resume=True)


def test_rollup_digest_independent_of_window_grouping(tmp_path):
    """1-day and 3-day windows fold the same days → only the window
    *content* differs (different sampling plan), never the mechanics:
    each run's digest is reproduced exactly by its own re-run."""
    for window_days in (1, 3):
        config = StreamConfig(workload=TINY, window_days=window_days, compress=False)
        a = run_stream_capture(config, tmp_path / f"a{window_days}")
        b = run_stream_capture(config, tmp_path / f"b{window_days}")
        assert a.rollup.state_digest() == b.rollup.state_digest()


# -- telemetry --------------------------------------------------------------


def test_render_telemetry_table():
    rows = [
        WindowTelemetry(
            window=i, day_lo=i, day_hi=i + 1, flows=1000 * (i + 1),
            gen_seconds=0.5, fold_seconds=0.1,
            bytes_spilled=2_000_000, peak_rss_mb=60.0 + i,
        )
        for i in range(2)
    ]
    text = render_telemetry(rows)
    assert "Flows/s" in text and "Peak RSS MB" in text
    assert "total" in text
    assert "3,000" in text  # total flows row


# -- CLI --------------------------------------------------------------------


def test_cli_stream_resume_and_report(tmp_path, capsys):
    directory = str(tmp_path / "cap")
    base = [
        "stream", "--customers", "60", "--days", "2", "--seed", "4",
        "--window-days", "1", "--no-compress", "--dir", directory,
    ]
    assert main(base + ["--max-windows", "1"]) == 0
    printed = capsys.readouterr().out
    assert "resumable" in printed
    assert main(base + ["--resume"]) == 0
    printed = capsys.readouterr().out
    assert "complete" in printed
    assert "Streaming capture telemetry" in printed

    assert main(["stream-report", "--dir", directory, "--which", "all"]) == 0
    printed = capsys.readouterr().out
    for marker in ("Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 8a", "Figure 9"):
        assert marker in printed


def test_cli_stream_report_rejects_unknown(tmp_path, capsys):
    directory = str(tmp_path / "cap")
    assert main([
        "stream", "--customers", "60", "--days", "1", "--seed", "4",
        "--no-compress", "--dir", directory,
    ]) == 0
    capsys.readouterr()
    assert main(["stream-report", "--dir", directory, "--which", "fig99"]) == 2


def test_cli_stream_report_without_capture(tmp_path, capsys):
    assert main(["stream-report", "--dir", str(tmp_path / "void")]) == 2
    assert "no such capture" in capsys.readouterr().err


# Absolute digest pins. Every other digest test compares two captures
# with each other; these pin the rollup format itself, so renaming,
# reshaping, retyping or re-folding any bank fails here even when it
# does so consistently. The video-streaming capture holds QoE sessions,
# so the Figure 12 banks are non-zero. leo-starlink adds the
# time-varying floor of the constellation delay source;
# traffic-overrides replaces per-service size and flow-count draws with
# scenario distributions and reweights two categories.
DIGEST_PINS = {
    "baseline-geo": (
        ["--customers", "120", "--days", "2", "--seed", "11", "--window-days", "1"],
        315_419,
        0,
        "c2c012b8ed340ecb6cb6c0ee6aa76160fd111edd5755fa1ff02239ec3e8e7686",
    ),
    "video-streaming": (
        ["--scenario", "video-streaming", "--customers", "60", "--days", "2",
         "--seed", "3"],
        115_409,
        59,
        "0cf509aa67460b294deaaf6373113659d7fcf1d18d5e7306fc2ba50040a23cbd",
    ),
    "leo-starlink": (
        ["--scenario", "leo-starlink", "--customers", "60", "--days", "2",
         "--seed", "5"],
        110_063,
        0,
        "cdf86fd0e1c0589dfb12cedce938ca39cbf48ef85ebda7aaa52106a46010c160",
    ),
    "traffic-overrides": (
        ["--customers", "60", "--days", "2", "--seed", "8",
         "--set", "traffic.size_overrides.Netflix=pareto(500000.0,1.3)",
         "--set", "traffic.size_overrides.GenericWeb=mixture("
         "0.7*lognormal(20000.0,1.2),0.3*weibull(90000.0,0.8))",
         "--set", "traffic.flows_overrides.Whatsapp=lognormal(40.0,0.9)",
         "--set", "traffic.flows_overrides.Youtube=pareto(6.0,2.5)",
         "--set", "traffic.category_weights.video=1.5",
         "--set", "traffic.category_weights.chat=0.6"],
        155_162,
        0,
        "46e342eb2db34849af32142e39343ec4cfdf09809ae004e4994ac498fe34d240",
    ),
    # windows spanning two days: the fold's (customer, day) cells have a
    # day axis that one-day windows never exercise
    "multi-day-window": (
        ["--customers", "120", "--days", "3", "--seed", "11", "--window-days", "2"],
        494_247,
        0,
        "a2bf15c8e016f8b7043591cb31820584505f8da51b6e6431e56cedc542f03a8d",
    ),
}


@pytest.mark.parametrize("name", sorted(DIGEST_PINS))
def test_cli_stream_digest_is_pinned(name, tmp_path, capsys):
    args, flows, sessions, digest = DIGEST_PINS[name]
    directory = tmp_path / "cap"
    assert main(["stream", *args, "--no-compress", "--dir", str(directory)]) == 0
    capsys.readouterr()
    rollup = StreamRollup.load(rollup_path(directory))
    assert rollup.flows_total == flows
    assert int(rollup.qoe_sessions.sum()) == sessions
    assert rollup.state_digest() == digest
    assert load_checkpoint(directory).rollup_digest == digest


# -- the whole point: bounded memory ---------------------------------------


def _run_stream_subprocess(directory: Path, days: int) -> float:
    """Run ``repro stream`` in a fresh process; return its peak RSS (MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    subprocess.run(
        [
            sys.executable, "-m", "repro", "stream",
            "--customers", "180", "--days", str(days), "--seed", "17",
            "--window-days", "1", "--no-compress", "--dir", str(directory),
        ],
        check=True,
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    payload = json.loads((directory / "checkpoint.json").read_text())
    assert payload["windows_done"] == days
    return max(row["peak_rss_mb"] for row in payload["telemetry"])


def test_peak_memory_flat_as_capture_grows_10x(tmp_path):
    """A 10x-longer capture must not need (anywhere near) 10x the
    memory: each window is spilled and dropped before the next one is
    produced, so peak RSS is set by the window size, not the total."""
    rss_1x = _run_stream_subprocess(tmp_path / "short", days=1)
    rss_10x = _run_stream_subprocess(tmp_path / "long", days=10)
    assert rss_10x <= rss_1x * 1.5, (rss_1x, rss_10x)
