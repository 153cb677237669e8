"""Unit and integration tests for the deterministic fault layer.

Covers the injector mechanics (plan determinism, retry/backoff, torn
writes, kill-points, worker-crash purity), the ``atomic_write_bytes``
primitive, the scenario ``faults`` section, and the headline contract:
an armed chaos plan changes timing and retry counts, never a byte of
the generated capture.
"""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.faults import (
    DEFAULT_MAX_ATTEMPTS,
    FAULT_PROFILES,
    FaultInjector,
    FaultPlan,
    FaultStats,
    InjectedIOError,
    IoFault,
    NO_FAULTS,
    TruncateFault,
    WorkerCrash,
    atomic_write_bytes,
    fleet_kill_points,
    partition_kill_prefix,
    resolve_injector,
    stream_kill_points,
)
from repro.scenario import ScenarioError, get_scenario
from repro.stream import StreamConfig, run_stream_capture
from repro.traffic.workload import WorkloadConfig

TINY = WorkloadConfig(n_customers=60, days=2, seed=5)


def _write_op(injector, op="io.write", payload=b"x" * 256, path=None):
    return atomic_write_bytes(
        path, lambda h: h.write(payload), injector=injector, op=op
    )


# -- plan determinism -------------------------------------------------------


def test_same_plan_same_faults(tmp_path):
    plan = FaultPlan(
        seed=3,
        io_faults=(IoFault(op="*", stage="write", rate=0.4),),
        backoff_base_s=0.0,
    )
    counts = []
    for run in range(2):
        injector = FaultInjector(plan, sleep=lambda _s: None)
        for i in range(20):
            _write_op(injector, path=tmp_path / f"r{run}-{i}.bin")
        counts.append(injector.stats.injected)
    assert counts[0] == counts[1]
    assert counts[0] > 0  # rate 0.4 over 20 ops must fire sometimes


def test_disabled_injector_never_fires(tmp_path):
    for injector in (NO_FAULTS, resolve_injector(None)):
        _write_op(injector, path=tmp_path / "ok.bin")
    assert NO_FAULTS.stats.injected == 0
    assert not NO_FAULTS.enabled


def test_resolve_injector_forms():
    plan = FaultPlan(seed=1)
    injector = FaultInjector(plan)
    assert resolve_injector(injector) is injector
    assert resolve_injector(plan).plan is plan
    assert resolve_injector(None) is NO_FAULTS


# -- retry with backoff -----------------------------------------------------


def test_injected_error_is_retried_with_backoff(tmp_path):
    sleeps = []
    plan = FaultPlan(io_faults=(IoFault(op="*", stage="write", fail_times=2),))
    injector = FaultInjector(plan, sleep=sleeps.append)
    size = _write_op(injector, path=tmp_path / "out.bin")
    assert size == 256
    assert (tmp_path / "out.bin").read_bytes() == b"x" * 256
    assert injector.stats.injected == 2
    assert injector.stats.retries == 2
    assert injector.stats.gave_up == 0
    # exponential growth modulo the +/-50% jitter: delay bounds double
    assert len(sleeps) == 2
    assert 0.025 <= sleeps[0] <= 0.075
    assert 0.05 <= sleeps[1] <= 0.15


def test_exhausted_retries_give_up(tmp_path):
    plan = FaultPlan(
        io_faults=(
            IoFault(op="*", stage="write", fail_times=DEFAULT_MAX_ATTEMPTS),
        )
    )
    injector = FaultInjector(plan, sleep=lambda _s: None)
    with pytest.raises(InjectedIOError, match="injected write failure"):
        _write_op(injector, path=tmp_path / "never.bin")
    assert injector.stats.gave_up == 1
    assert injector.stats.retries == DEFAULT_MAX_ATTEMPTS - 1
    assert not (tmp_path / "never.bin").exists()


def test_real_transient_oserror_is_retried():
    attempts = []

    def flaky(_ticket):
        attempts.append(1)
        if len(attempts) < 3:
            raise OSError("disk hiccup")
        return "ok"

    injector = FaultInjector(None, sleep=lambda _s: None)
    assert injector.run_io("op", flaky) == "ok"
    assert len(attempts) == 3
    assert injector.stats.retries == 2


def test_non_transient_errors_never_retried():
    attempts = []

    def missing(_ticket):
        attempts.append(1)
        raise FileNotFoundError("gone")

    injector = FaultInjector(FaultPlan(), sleep=lambda _s: None)
    with pytest.raises(FileNotFoundError):
        injector.run_io("op", missing)
    assert len(attempts) == 1
    assert injector.stats.retries == 0


def test_fault_targets_by_op_pattern(tmp_path):
    plan = FaultPlan(io_faults=(IoFault(op="cache.*", stage="write"),))
    injector = FaultInjector(plan, sleep=lambda _s: None)
    _write_op(injector, op="store.manifest", path=tmp_path / "a.bin")
    assert injector.stats.injected == 0
    _write_op(injector, op="cache.store", path=tmp_path / "b.bin")
    assert injector.stats.injected == 1


# -- atomic writes ----------------------------------------------------------


def test_atomic_write_leaves_no_temp_litter(tmp_path):
    plan = FaultPlan(
        io_faults=(
            IoFault(op="*", stage="rename", fail_times=DEFAULT_MAX_ATTEMPTS),
        )
    )
    injector = FaultInjector(plan, sleep=lambda _s: None)
    with pytest.raises(InjectedIOError):
        _write_op(injector, path=tmp_path / "torn.bin")
    _write_op(NO_FAULTS, path=tmp_path / "fine.bin")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fine.bin"]


def test_atomic_write_never_exposes_partial_target(tmp_path):
    target = tmp_path / "value.bin"
    target.write_bytes(b"old")
    plan = FaultPlan(
        io_faults=(
            IoFault(op="*", stage="fsync", fail_times=DEFAULT_MAX_ATTEMPTS),
        )
    )
    injector = FaultInjector(plan, sleep=lambda _s: None)
    with pytest.raises(InjectedIOError):
        _write_op(injector, path=target, payload=b"new-payload")
    assert target.read_bytes() == b"old"  # failed publish left the old file


def test_truncate_fault_publishes_torn_file(tmp_path):
    plan = FaultPlan(truncate_faults=(TruncateFault(op="*", fraction=0.25),))
    injector = FaultInjector(plan)
    size = _write_op(injector, path=tmp_path / "torn.bin", payload=b"y" * 400)
    assert size == 100
    assert (tmp_path / "torn.bin").stat().st_size == 100
    assert injector.stats.truncated == 1


# -- kill points ------------------------------------------------------------


def test_kill_point_sigkills_named_checkpoint():
    pid = os.fork()
    if pid == 0:  # child: must die at the kill point, never reach _exit(0)
        FaultInjector(FaultPlan(kill_at=("here",))).kill_point("here")
        os._exit(0)
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status)
    assert os.WTERMSIG(status) == signal.SIGKILL


def test_kill_point_ignores_other_names():
    FaultInjector(FaultPlan(kill_at=("there",))).kill_point("here")
    NO_FAULTS.kill_point("here")  # disabled: never kills


# -- worker crashes ---------------------------------------------------------


def test_crash_worker_is_pure():
    plan = FaultPlan(seed=11, worker_crashes=(WorkerCrash(rate=0.5),))
    a = FaultInjector(plan)
    b = FaultInjector(plan)
    grid = [(w, s) for w in range(4) for s in range(4)]
    decisions = [a.crash_worker(w, s) for w, s in grid]
    assert decisions == [b.crash_worker(w, s) for w, s in grid]
    assert any(decisions) and not all(decisions)


def test_crash_worker_targets_cells():
    plan = FaultPlan(worker_crashes=(WorkerCrash(window=1, shard=2),))
    injector = FaultInjector(plan)
    assert injector.crash_worker(1, 2)
    assert not injector.crash_worker(1, 3)
    assert not injector.crash_worker(0, 2)
    assert not NO_FAULTS.crash_worker(1, 2)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork workers",
)
def test_worker_crash_falls_back_bit_identical():
    from repro.parallel import ShardWorkerPool, plan_shards
    from repro.traffic.workload import WorkloadGenerator

    generator = WorkloadGenerator(WorkloadConfig(n_customers=300, days=2, seed=5))
    shards = plan_shards(300, 2)
    with ShardWorkerPool(generator, 2) as pool:
        clean = pool.generate_window(shards, 2, 0, 0, 1)
    injector = FaultInjector(
        FaultPlan(worker_crashes=(WorkerCrash(rate=1.0),))
    )
    with ShardWorkerPool(generator, 2, injector=injector) as pool:
        with pytest.warns(RuntimeWarning, match="pool worker died"):
            chaotic = pool.generate_window(shards, 2, 0, 0, 1)
    assert injector.stats.worker_crashes >= 1
    assert len(clean) == len(chaotic)
    from repro.analysis.dataset import _ARRAY_FIELDS

    for a, b in zip(clean, chaotic):
        assert (a is None) == (b is None)
        if a is not None:
            for name in _ARRAY_FIELDS:
                x, y = getattr(a, name), getattr(b, name)
                nan_ok = np.issubdtype(x.dtype, np.floating)
                assert np.array_equal(x, y, equal_nan=nan_ok), name


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork workers",
)
def test_dying_workers_capture_heals_to_clean_digest(tmp_path):
    """The documented ``dying-workers`` profile through the capture's
    own pool: crashed windows regenerate in-process, bytes unchanged."""
    config = get_scenario("baseline-geo").with_overrides(
        {
            "population.n_customers": 120,
            "workload.days": 3,
            "workload.n_shards": 4,
            "execution.workers": 2,
            "execution.compress": False,
        }
    ).stream_config()
    clean = run_stream_capture(config, tmp_path / "clean")
    with pytest.warns(RuntimeWarning, match="pool worker died"):
        chaotic = run_stream_capture(
            config, tmp_path / "chaos", faults=FAULT_PROFILES["dying-workers"]
        )
    assert chaotic.fault_stats.worker_crashes > 0
    assert chaotic.rollup.state_digest() == clean.rollup.state_digest()


# -- stats ------------------------------------------------------------------


def test_fault_stats_copy_delta_summary():
    stats = FaultStats(injected=3, retries=2, truncated=1, worker_crashes=1)
    before = stats.copy()
    stats.injected += 2
    delta = stats.delta(before)
    assert delta.injected == 2 and delta.retries == 0
    assert stats.faults == 5 + 1 + 1
    assert "5 io injected" in stats.summary()
    assert "2 retries" in stats.summary()


# -- scenario section -------------------------------------------------------


def test_scenario_faults_default_disabled_and_digest_neutral():
    baseline = get_scenario("baseline-geo")
    assert baseline.fault_plan() is None
    chaotic = baseline.with_overrides(
        {"faults.profile": "flaky-disk", "faults.seed": 9}
    )
    plan = chaotic.fault_plan()
    assert plan is not None and plan.seed == 9
    assert plan.io_faults == FAULT_PROFILES["flaky-disk"].io_faults
    # chaos is execution-only: the content digest cannot move
    assert chaotic.digest() == baseline.digest()
    assert chaotic.stream_config().capture_key() == (
        baseline.stream_config().capture_key()
    )


def test_scenario_faults_knobs_layer_on_profile():
    scenario = get_scenario("baseline-geo").with_overrides(
        {
            "faults.io_error_rate": 0.2,
            "faults.io_fail_times": 2,
            "faults.fsync_error_rate": 0.1,
            "faults.worker_crash_rate": 0.3,
            "faults.kill_at": ["stream:init"],
        }
    )
    plan = scenario.fault_plan()
    stages = {(f.stage, f.rate, f.fail_times) for f in plan.io_faults}
    assert ("write", 0.2, 2) in stages
    assert ("fsync", 0.1, 2) in stages
    assert plan.worker_crashes == (WorkerCrash(rate=0.3),)
    assert plan.kill_at == ("stream:init",)


def test_scenario_rejects_bad_faults():
    base = get_scenario("baseline-geo")
    with pytest.raises(ScenarioError, match="unknown fault profile"):
        base.with_overrides({"faults.profile": "nope"})
    with pytest.raises(ScenarioError, match="io_error_rate"):
        base.with_overrides({"faults.io_error_rate": 1.5})
    with pytest.raises(ScenarioError, match="io_fail_times"):
        base.with_overrides({"faults.io_fail_times": 0})


def test_scenario_accepts_every_kill_point_a_capture_names():
    base = get_scenario("baseline-geo")
    stream = stream_kill_points(3)
    names = stream + fleet_kill_points(3)
    names += [partition_kill_prefix(1) + name for name in stream]
    scenario = base.with_overrides({"faults.kill_at": names})
    assert scenario.faults.kill_at == tuple(names)


@pytest.mark.parametrize(
    "name", ["stream:w0:spiled", "fleet:p1:done", "p01:stream:init"]
)
def test_scenario_rejects_a_kill_point_that_cannot_fire(name):
    base = get_scenario("baseline-geo")
    with pytest.raises(ScenarioError, match=r"^faults\.kill_at: unknown kill-point"):
        base.with_overrides({"faults.kill_at": [name]})


# -- end to end: chaos never changes the capture ----------------------------


def test_flaky_disk_stream_is_bit_identical(tmp_path):
    config = StreamConfig(workload=TINY, window_days=1, compress=False)
    clean = run_stream_capture(config, tmp_path / "clean")
    chaotic = run_stream_capture(
        config,
        tmp_path / "chaos",
        faults=FAULT_PROFILES["flaky-disk"],
    )
    assert chaotic.rollup.state_digest() == clean.rollup.state_digest()
    assert chaotic.fault_stats.injected > 0
    assert chaotic.fault_stats.retries > 0
    assert chaotic.fault_stats.gave_up == 0
    # the counters land in the per-window telemetry (the final
    # checkpoint write commits its own row, so only its faults can be
    # missing from the rows), and nowhere on the clean run
    rows_faults = sum(t.faults for t in chaotic.telemetry)
    assert 0 < rows_faults <= chaotic.fault_stats.faults
    assert sum(t.io_retries for t in chaotic.telemetry) <= (
        chaotic.fault_stats.retries
    )
    assert all(t.faults == 0 and t.io_retries == 0 for t in clean.telemetry)


def test_fault_counters_render_in_telemetry(tmp_path):
    from repro.stream import render_telemetry

    result = run_stream_capture(
        StreamConfig(workload=TINY, window_days=1, compress=False),
        tmp_path / "cap",
        faults=FaultPlan(
            io_faults=(IoFault(op="checkpoint.write", stage="write"),),
            backoff_base_s=0.0,
        ),
    )
    table = render_telemetry(result.telemetry)
    assert "Faults" in table and "Retries" in table
    assert result.fault_stats.injected == len(result.telemetry)


def test_cli_stream_prints_fault_summary(tmp_path, capsys):
    from repro.cli import main

    code = main(
        [
            "stream",
            "--dir",
            str(tmp_path / "cap"),
            "--customers",
            "60",
            "--days",
            "2",
            "--set",
            "faults.profile=flaky-disk",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "faults:" in out
    assert " retries" in out
