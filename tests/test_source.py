"""Tests for the FlowSource abstraction and load_capture diagnostics."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.dataset import _ARRAY_FIELDS, FlowFrame
from repro.analysis.source import (
    CaptureError,
    FrameSource,
    RollupSource,
    StoreSource,
    load_capture,
)
from repro.cli import main


@pytest.fixture(scope="module")
def capture_dir(tmp_path_factory):
    """A small, complete streamed capture (2 windows)."""
    directory = tmp_path_factory.mktemp("source") / "cap"
    assert main([
        "stream", "--customers", "60", "--days", "2", "--seed", "9",
        "--window-days", "1", "--no-compress", "--dir", str(directory),
    ]) == 0
    return directory


@pytest.fixture(scope="module")
def frame_npz(tmp_path_factory, capture_dir):
    """The same capture, materialized to a frame ``.npz``."""
    frame = load_capture(capture_dir).to_frame()
    path = tmp_path_factory.mktemp("source") / "frame.npz"
    frame.save_npz(path)
    return path


# --- load_capture diagnostics ---------------------------------------------


def test_missing_path(tmp_path):
    with pytest.raises(CaptureError, match="no such capture"):
        load_capture(tmp_path / "void.npz")


def test_directory_without_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(CaptureError, match="without a manifest.json"):
        load_capture(tmp_path / "empty")


def test_bad_manifest(tmp_path):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.json").write_text("{ not json")
    with pytest.raises(CaptureError, match="corrupt capture manifest"):
        load_capture(bad)


def test_wrong_schema_manifest(tmp_path):
    bad = tmp_path / "schema"
    bad.mkdir()
    (bad / "manifest.json").write_text(json.dumps({"schema": 999}))
    with pytest.raises(CaptureError, match="corrupt capture manifest"):
        load_capture(bad)


def test_truncated_npz(tmp_path, frame_npz):
    clipped = tmp_path / "clipped.npz"
    clipped.write_bytes(frame_npz.read_bytes()[:100])
    with pytest.raises(CaptureError, match="cannot read"):
        load_capture(clipped)


def test_unrecognized_npz(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, something=np.arange(3))
    with pytest.raises(CaptureError, match="neither a frame capture"):
        load_capture(path)


def test_frame_npz_missing_column(tmp_path, frame_npz):
    with np.load(frame_npz, allow_pickle=True) as data:
        members = {name: data[name] for name in data.files}
    members.pop("sat_rtt_ms")
    partial = tmp_path / "partial.npz"
    np.savez(partial, **members)
    with pytest.raises(CaptureError, match="lacks columns.*sat_rtt_ms"):
        load_capture(partial)


# --- the three source kinds -----------------------------------------------


def test_frame_source(frame_npz):
    source = load_capture(frame_npz)
    assert isinstance(source, FrameSource)
    assert source.kind == "frame"
    frame = source.to_frame()
    assert len(frame) > 0
    # projection is a no-op on a resident frame
    assert source.to_frame(columns=("bytes_down",)) is frame
    assert "flows" in source.describe()
    rollup = source.to_rollup()
    assert rollup.flows_total == len(frame)


def test_store_source(capture_dir):
    source = load_capture(capture_dir)
    assert isinstance(source, StoreSource)
    assert source.kind == "store"
    frame = source.to_frame()
    rollup = source.to_rollup()
    assert rollup.flows_total == len(frame)
    assert "windows" in source.describe()


def test_store_projection_backfills_sentinels(capture_dir):
    source = load_capture(capture_dir)
    full = source.to_frame()
    projected = source.to_frame(columns=("country_idx", "bytes_down"))
    assert len(projected) == len(full)
    assert np.array_equal(projected.country_idx, full.country_idx)
    assert np.array_equal(projected.bytes_down, full.bytes_down)
    # unrequested columns come back typed and filled with sentinels
    assert np.isnan(projected.sat_rtt_ms).all()
    assert (projected.domain_idx == -1).all()
    for name in _ARRAY_FIELDS:
        assert getattr(projected, name).dtype == FlowFrame.COLUMN_DTYPES[name]
    with pytest.raises(KeyError, match="unknown columns"):
        source.to_frame(columns=("not_a_column",))


def test_store_rollup_fold_fallback(capture_dir, tmp_path):
    """Without rollup.npz the store re-folds windows to the same state."""
    import shutil

    from repro.stream.checkpoint import rollup_path

    copy = tmp_path / "cap-copy"
    shutil.copytree(capture_dir, copy)
    saved = load_capture(copy).to_rollup()
    rollup_path(copy).unlink()
    folded = load_capture(copy).to_rollup()
    assert folded.flows_total == saved.flows_total
    assert folded.state_digest() == saved.state_digest()


def test_store_rollup_refolds_when_saved_state_lags_the_windows(capture_dir, tmp_path):
    """A kill between spill and save (``stream:w1:spilled``) leaves two
    stored windows and a rollup that folded one. Every report, whichever
    path it takes, must then describe the two stored windows."""
    import shutil

    from repro.analysis import registry
    from repro.stream import StreamRollup
    from repro.stream.checkpoint import rollup_path

    copy = tmp_path / "cap-torn"
    shutil.copytree(capture_dir, copy)
    source = load_capture(copy)
    pools = source.store.pools
    lagging = StreamRollup(pools["countries"], pools["services"], pools["resolvers"])
    lagging.update(source.store.read_window(0))
    lagging.save(rollup_path(copy))
    assert source.store.stored_window_count() == 2

    rollup = load_capture(copy).to_rollup()
    assert rollup.windows_folded == 2
    assert rollup.state_digest() == load_capture(capture_dir).to_rollup().state_digest()
    flows = FrameSource(source.to_frame())
    for name in ("table1", "fig2", "fig4"):
        assert registry.run(name, load_capture(copy)) == registry.run(name, flows)
    for name in ("table1", "fig2"):  # exact: what stream-report prints too
        assert registry.run(name, load_capture(copy), prefer="rollup") == (
            registry.run(name, flows)
        )


def test_sources_fold_once(frame_npz, capture_dir):
    for source in (load_capture(frame_npz), load_capture(capture_dir)):
        assert source.to_rollup() is source.to_rollup()


def test_rollup_source(capture_dir):
    source = load_capture(capture_dir / "rollup.npz")
    assert isinstance(source, RollupSource)
    assert source.kind == "rollup"
    assert source.to_rollup().flows_total > 0
    with pytest.raises(CaptureError, match="cannot reconstruct flows"):
        source.to_frame()
    assert "rollup" in source.describe()
