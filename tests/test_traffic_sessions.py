"""Video-QoE sessions end to end: the ABR model, the generator's
session chunks, shaping behaviour, fig12 parity, and old-capture
backfill."""

from pathlib import Path

import numpy as np
import pytest

from repro.analysis.dataset import _ARRAY_FIELDS, _POOL_FIELDS, FlowFrame
from repro.analysis.reports import fig12_video_qoe
from repro.analysis.source import FrameSource
from repro.flowmeter.records import L7Protocol, L7_ORDER
from repro.scenario import get_scenario
from repro.stream import FlowStore, StreamRollup, WindowEntry, run_stream_capture
from repro.traffic.sessions import VideoQoeConfig, VideoSessionModel


def _video_scenario(name: str = "video-streaming", **extra):
    overrides = {
        "population.n_customers": 60,
        "workload.days": 2,
        "workload.seed": 5,
        "execution.compress": False,
        **extra,
    }
    return get_scenario(name).with_overrides(overrides)


# -- the ABR session model ------------------------------------------------


def test_session_model_deterministic_and_bounded():
    model = VideoSessionModel()
    a = model.simulate(5e6, 600.0)
    b = model.simulate(5e6, 600.0)
    assert np.array_equal(a.chunk_bytes, b.chunk_bytes)
    assert np.array_equal(a.chunk_time_s, b.chunk_time_s)
    assert np.array_equal(a.start_offset_s, b.start_offset_s)
    assert a.rebuffer_ratio == b.rebuffer_ratio
    assert 0.0 <= a.rebuffer_ratio <= 1.0
    ladder_len = len(model.config.ladder_mbps)
    assert 0.0 <= a.mean_level <= ladder_len - 1
    assert a.switches >= 0
    assert len(a.chunk_bytes) == len(a.chunk_time_s) == len(a.start_offset_s)
    assert np.all(a.chunk_bytes > 0)
    assert np.all(np.diff(a.start_offset_s) >= 0)


def test_session_model_follows_capacity_gradient():
    model = VideoSessionModel()
    starved = model.simulate(1.2e6, 600.0)
    rich = model.simulate(50e6, 600.0)
    assert rich.mean_level > starved.mean_level
    assert rich.rebuffer_ratio <= starved.rebuffer_ratio
    # plenty of headroom reaches the top rung and barely rebuffers
    assert rich.mean_level > len(model.config.ladder_mbps) - 2
    assert rich.rebuffer_ratio < 0.05


def test_session_model_caps_chunks():
    result = VideoSessionModel().simulate(5e6, 1e9)
    assert len(result.chunk_bytes) == VideoSessionModel.MAX_CHUNKS


def test_shaper_trades_level_for_stability():
    """A 4 Mb/s video shaper must pull the mean level down toward the
    sustainable rung even on a fat plan."""
    unshaped = VideoSessionModel(VideoQoeConfig()).simulate(100e6, 900.0)
    shaped = VideoSessionModel(VideoQoeConfig(shape_bps=4e6)).simulate(100e6, 900.0)
    assert shaped.mean_level < unshaped.mean_level
    # sustainable at ABR_MARGIN * 4 Mb/s: the 2.5 Mb/s rung (index 1)
    assert shaped.mean_level < 2.5
    assert shaped.rebuffer_ratio < 0.2


# -- the generator's session chunks ---------------------------------------


@pytest.fixture(scope="module")
def video_frame():
    return _video_scenario().build_generator().generate()


def test_generator_emits_consistent_sessions(video_frame):
    frame = video_frame
    has = frame.session_id >= 0
    assert has.any(), "video-streaming scenario must emit session chunks"
    # QoE columns are sentinel-filled outside sessions and real inside
    assert np.all(np.isnan(frame.qoe_rebuffer[~has]))
    assert np.all(frame.qoe_switches[~has] == -1)
    assert np.all(np.isfinite(frame.qoe_rebuffer[has]))
    assert np.all(frame.qoe_rebuffer[has] >= 0.0)
    assert np.all(frame.qoe_rebuffer[has] <= 1.0)
    assert np.all(frame.qoe_level[has] >= 0.0)
    assert np.all(frame.qoe_switches[has] >= 0)
    # session chunks are HTTPS video flows without RTT/DNS enrichment
    assert np.all(frame.l7_idx[has] == L7_ORDER.index(L7Protocol.HTTPS))
    assert np.all(frame.resolver_idx[has] == -1)
    # every chunk of a session agrees on customer, country, day and QoE
    ids = frame.session_id[has]
    for name in ("customer_id", "country_idx", "day", "qoe_rebuffer", "qoe_level", "qoe_switches"):
        col = getattr(frame, name)[has]
        order = np.argsort(ids, kind="stable")
        same_session = np.diff(ids[order]) == 0
        pairs_equal = np.diff(col[order].astype(np.float64)) == 0
        assert np.all(pairs_equal[same_session]), f"{name} varies within a session"


def test_disabled_qoe_emits_no_sessions():
    frame = (
        _video_scenario(name="baseline-geo").build_generator().generate()
    )
    assert not np.any(frame.session_id >= 0)
    assert np.all(np.isnan(frame.qoe_rebuffer))


def test_shaped_scenario_lowers_mean_level(video_frame):
    shaped_frame = (
        _video_scenario(name="shaped-vs-unshaped").build_generator().generate()
    )
    unshaped = fig12_video_qoe.from_rollup(FrameSource(video_frame).to_rollup())
    shaped = fig12_video_qoe.from_rollup(FrameSource(shaped_frame).to_rollup())
    assert shaped.total_sessions() > 0
    level_unshaped = float(unshaped.level_sum.sum() / unshaped.total_sessions())
    level_shaped = float(shaped.level_sum.sum() / shaped.total_sessions())
    assert level_shaped < level_unshaped


# -- streaming parity -----------------------------------------------------


def test_stream_capture_parity_across_workers_and_depths(tmp_path):
    """The same video capture, streamed under different worker counts
    and pipeline depths, spills identical windows and rollups, and
    fig12 renders identically from the saved rollup and from a fold of
    the spilled flows."""
    digests = []
    renders = []
    for label, overrides in (
        ("w1", {"execution.workers": 1, "execution.pipeline_depth": 0}),
        ("w2", {"execution.workers": 2, "execution.pipeline_depth": 2}),
    ):
        scenario = _video_scenario(**overrides)
        result = run_stream_capture(
            scenario.stream_config(), tmp_path / label
        )
        digests.append(result.rollup.state_digest())
        renders.append(
            fig12_video_qoe.render(fig12_video_qoe.from_rollup(result.rollup))
        )
        assert int(result.rollup.qoe_sessions.sum()) > 0
    assert digests[0] == digests[1]
    assert renders[0] == renders[1]
    # the window-by-window fold == one fold of the spilled flows, byte
    # for byte
    store = FlowStore.open(tmp_path / "w1")
    streamed = FlowFrame.concat([w for _, w in store.iter_windows()])
    rollup = FrameSource(streamed).to_rollup()
    assert renders[0] == fig12_video_qoe.render(fig12_video_qoe.from_rollup(rollup))


def test_rollup_qoe_merge_matches_single_fold(video_frame):
    frame = video_frame
    days = np.unique(frame.day)
    whole = StreamRollup.for_frame(frame)
    first = StreamRollup.for_frame(frame)
    second = StreamRollup.for_frame(frame)
    for day in days:
        whole.update(frame.filter(frame.day == day))
    first.update(frame.filter(frame.day == days[0]))
    for day in days[1:]:
        second.update(frame.filter(frame.day == day))
    first.merge(second)
    assert np.array_equal(whole.qoe_sessions, first.qoe_sessions)
    np.testing.assert_allclose(
        whole.qoe_rebuffer_sum, first.qoe_rebuffer_sum, rtol=1e-12
    )
    assert np.array_equal(whole.qoe_sessions, FrameSource(frame).to_rollup().qoe_sessions)


# -- old-capture backfill -------------------------------------------------

_SEED_COLUMNS = _ARRAY_FIELDS[:19]


def _strip_new_columns_npz(src: Path, dst: Path, keep_pools: bool) -> None:
    """Re-save an npz without the session/QoE quartet, like a capture
    written before the schema grew."""
    with np.load(src, allow_pickle=True) as data:
        kept = {
            name: data[name]
            for name in data.files
            if name in _SEED_COLUMNS or (keep_pools and name.startswith("pool_"))
        }
    np.savez(dst, **kept)


def test_load_npz_backfills_old_frame(tmp_path, video_frame):
    sub = video_frame.filter(video_frame.day == 0)
    new_path = tmp_path / "new.npz"
    old_path = tmp_path / "old.npz"
    sub.save_npz(new_path, compress=False)
    _strip_new_columns_npz(new_path, old_path, keep_pools=True)
    loaded = FlowFrame.load_npz(old_path)
    assert len(loaded) == len(sub)
    assert np.all(loaded.session_id == -1)
    assert np.all(np.isnan(loaded.qoe_rebuffer))
    assert np.all(np.isnan(loaded.qoe_level))
    assert np.all(loaded.qoe_switches == -1)
    assert loaded.session_id.dtype == np.int64
    assert loaded.qoe_switches.dtype == np.int16


def test_store_read_window_backfills_old_capture(tmp_path, video_frame):
    sub = video_frame.filter(video_frame.day == 0)
    pools = {name: list(getattr(sub, name)) for name in _POOL_FIELDS}
    store = FlowStore.create(
        tmp_path / "cap",
        pools=pools,
        windows=[WindowEntry(0, 0, 1)],
        capture_key="test",
        config={},
        compress=False,
    )
    store.write_window(0, sub)
    path = store.window_path(0)
    _strip_new_columns_npz(path, path, keep_pools=False)

    full = store.read_window(0)
    assert np.all(full.session_id == -1)
    assert np.all(np.isnan(full.qoe_rebuffer))
    assert full.qoe_switches.dtype == np.int16

    projected = store.read_window(0, columns=("bytes_down", "qoe_level"))
    assert len(projected["qoe_level"]) == len(sub)
    assert np.all(np.isnan(projected["qoe_level"]))
    np.testing.assert_array_equal(projected["bytes_down"], sub.bytes_down)
