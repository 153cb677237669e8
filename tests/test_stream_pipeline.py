"""Pipelined vs lockstep streaming capture: bit-identical by sweep.

The tentpole property of the pipelined producer: ``pipeline_depth``
(and the worker count) are *execution* knobs — every combination must
produce the same windows, the same rollup digest, the same capture
key. The sweeps here compare full capture directories column by column
against a lockstep single-worker reference, and exercise the
failure/resume paths that only exist in pipelined mode.
"""

import multiprocessing

import numpy as np
import pytest

from repro.analysis.dataset import _ARRAY_FIELDS
from repro.stream import StreamConfig, run_stream_capture
from repro.stream.store import FlowStore
from repro.traffic.workload import WorkloadConfig

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

fork_only = pytest.mark.skipif(HAS_FORK is False, reason="needs fork workers")


def _config(seed: int, workers: int, depth: int) -> StreamConfig:
    return StreamConfig(
        workload=WorkloadConfig(
            n_customers=48, days=3, seed=seed, n_workers=workers
        ),
        window_days=1,
        compress=False,
        pipeline_depth=depth,
    )


def _assert_captures_identical(ref_dir, got_dir) -> None:
    """Window-by-window, column-by-column equality of two capture dirs
    (file bytes can differ in zip mtimes; the *content* may not)."""
    ref = FlowStore.open(ref_dir)
    got = FlowStore.open(got_dir)
    assert got.capture_key == ref.capture_key
    assert [w.index for w in got.windows] == [w.index for w in ref.windows]
    for entry in ref.windows:
        a = ref.read_window(entry.index)
        b = got.read_window(entry.index)
        for name in _ARRAY_FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype, f"w{entry.index}.{name} dtype"
            nan_ok = x.dtype.kind == "f"
            assert np.array_equal(x, y, equal_nan=nan_ok), (
                f"window {entry.index} column {name} differs"
            )


@pytest.mark.parametrize("seed", [3, 11])
def test_depth_sweep_single_worker_is_bit_identical(seed, tmp_path):
    reference = run_stream_capture(_config(seed, 1, 0), tmp_path / "ref")
    assert reference.complete
    for depth in (1, 2):
        out = tmp_path / f"d{depth}"
        result = run_stream_capture(_config(seed, 1, depth), out)
        assert result.complete
        assert result.rollup.state_digest() == reference.rollup.state_digest()
        assert (
            result.checkpoint.rollup_digest == reference.checkpoint.rollup_digest
        )
        _assert_captures_identical(tmp_path / "ref", out)


@fork_only
@pytest.mark.parametrize("workers,depth", [(2, 1), (2, 2), (4, 2)])
def test_pipelined_pool_workers_match_lockstep(workers, depth, tmp_path):
    reference = run_stream_capture(_config(11, 1, 0), tmp_path / "ref")
    result = run_stream_capture(_config(11, workers, depth), tmp_path / "out")
    assert result.complete
    assert result.rollup.state_digest() == reference.rollup.state_digest()
    _assert_captures_identical(tmp_path / "ref", tmp_path / "out")


def test_execution_knobs_stay_out_of_scenario_digest():
    from repro.scenario import get_scenario

    scenario = get_scenario("baseline-geo")
    tweaked = scenario.with_overrides({"execution.pipeline_depth": 2})
    assert tweaked.digest() == scenario.digest()
    assert tweaked.execution.pipeline_depth == 2


def test_bad_execution_knobs_are_rejected():
    from repro.scenario import ScenarioError, get_scenario

    scenario = get_scenario("baseline-geo")
    with pytest.raises(ScenarioError):
        scenario.with_overrides({"execution.pipeline_depth": -1})
    with pytest.raises(ScenarioError, match=r"execution\.engine: unknown key"):
        scenario.with_overrides({"execution.engine": "python"})


def test_stage_split_lands_in_telemetry(tmp_path):
    result = run_stream_capture(_config(3, 1, 1), tmp_path / "cap")
    assert result.complete
    for t in result.telemetry:
        assert t.gen_seconds > 0
        assert t.spill_seconds >= 0
        assert t.fold_seconds >= 0
        assert t.save_seconds >= 0
        assert t.busy_seconds == pytest.approx(
            t.gen_seconds + t.spill_seconds + t.fold_seconds + t.save_seconds
        )
        assert t.flows_per_s == pytest.approx(t.flows / t.busy_seconds)
    from repro.stream import render_telemetry

    table = render_telemetry(result.telemetry)
    for column in ("Gen ms", "Spill ms", "Fold ms", "Save ms", "Seconds"):
        assert column in table


def test_checkpoint_rows_without_save_seconds_still_load(tmp_path):
    """Rows written before the fold/save split load with zero save time."""
    import json

    from repro.stream import load_checkpoint
    from repro.stream.checkpoint import checkpoint_path

    run_stream_capture(_config(3, 1, 0), tmp_path / "cap")
    path = checkpoint_path(tmp_path / "cap")
    payload = json.loads(path.read_text())
    for row in payload["telemetry"]:
        del row["save_seconds"]
    path.write_text(json.dumps(payload))
    rows = load_checkpoint(tmp_path / "cap").telemetry
    assert rows and all(t.save_seconds == 0.0 for t in rows)


def test_resume_mid_capture_pipelined(tmp_path):
    """A bounded pipelined run resumes to the lockstep digest."""
    reference = run_stream_capture(_config(11, 1, 0), tmp_path / "ref")
    partial = run_stream_capture(
        _config(11, 1, 2), tmp_path / "cap", max_windows=2
    )
    assert not partial.complete
    assert partial.checkpoint.windows_done == 2
    resumed = run_stream_capture(_config(11, 1, 2), tmp_path / "cap", resume=True)
    assert resumed.complete
    assert resumed.rollup.state_digest() == reference.rollup.state_digest()
    _assert_captures_identical(tmp_path / "ref", tmp_path / "cap")


class _WindowOneFailure(RuntimeError):
    pass


def test_commit_failure_surfaces_on_main_thread(tmp_path):
    """A commit-side exception must not deadlock the bounded queue: it
    parks, the producer drains, and the error re-raises on the caller's
    thread with the checkpoint covering exactly the committed windows."""

    def explode(t):
        if t.window == 1:
            raise _WindowOneFailure("window 1 observer failed")

    with pytest.raises(_WindowOneFailure):
        run_stream_capture(
            _config(3, 1, 2), tmp_path / "cap", on_window=explode
        )
    from repro.stream import load_checkpoint

    checkpoint = load_checkpoint(tmp_path / "cap")
    # window 1's commit sequence finished (the observer runs last), so
    # the cursor covers it; the capture stays resumable to completion
    assert checkpoint is not None
    assert checkpoint.windows_done == 2
    resumed = run_stream_capture(_config(3, 1, 2), tmp_path / "cap", resume=True)
    assert resumed.complete
    reference = run_stream_capture(_config(3, 1, 0), tmp_path / "ref")
    assert resumed.rollup.state_digest() == reference.rollup.state_digest()


def test_shard_pool_matches_shard_seed_generation():
    import multiprocessing

    from repro.parallel import ShardWorkerPool, shard_seed
    from repro.traffic.workload import WorkloadConfig, WorkloadGenerator

    generator = WorkloadGenerator(WorkloadConfig(n_customers=40, days=2, seed=5))
    shards = generator.shard_plan()
    reference = [
        generator.generate_shard_days(
            shard, 0, 1, np.random.default_rng(shard_seed(5, shard, window=(2, 0)))
        )
        for shard in shards
    ]

    worker_counts = [1]
    if "fork" in multiprocessing.get_all_start_methods():
        worker_counts.append(2)
    for n_workers in worker_counts:
        with ShardWorkerPool(generator, n_workers) as pool:
            frames = pool.generate_window(shards, 2, 0, 0, 1)
        assert len(frames) == len(reference)
        for got, want in zip(frames, reference):
            if want is None:
                assert got is None
                continue
            assert len(got) == len(want)
            for name in ("ts_start", "bytes_down", "ground_rtt_ms"):
                a, b = getattr(got, name), getattr(want, name)
                nan_ok = a.dtype.kind == "f"
                assert np.array_equal(a, b, equal_nan=nan_ok), name
