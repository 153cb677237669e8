"""The distributed fleet: planning, workers, coordinator, healing, CLI.

The contracts under test:

* partition planning is a deterministic pure function of the scenario —
  disjoint contiguous shard ranges covering the full plan, stable
  capture keys, independent fault seeds;
* the acceptance oracle: a fleet capture's merged rollup digest is
  bit-identical to the single-process ``repro stream`` digest of the
  same scenario, for any partition count, across worker SIGKILLs healed
  via resume, and across straggler kills;
* the coordinator is disk-authoritative — resuming a complete fleet is
  idempotent, resuming a torn one finishes only the missing work;
* ``fleet`` sections never change content digests, and nested
  parallelism divides the affinity budget instead of multiplying it.
"""

import json
import time
from pathlib import Path

import pytest

from repro.analysis.source import CaptureError
from repro.cli import main
from repro.faults import FaultPlan
from repro.fleet import (
    FLEET_MANIFEST,
    FLEET_TELEMETRY,
    MERGED_ROLLUP,
    fleet_kill_points,
    load_fleet_manifest,
    merge_partition_captures,
    partition_dir,
    partition_fault_plan,
    partition_kill_prefix,
    plan_partitions,
    render_fleet_telemetry,
    run_fleet_capture,
    run_partition,
)
from repro.fleet import coordinator as fleet_coordinator
from repro.fleet.worker import partition_process_entry
from repro.parallel import resolve_workers
from repro.scenario import ScenarioError, get_scenario
from repro.stream import StreamRollup, load_checkpoint, run_stream_capture
from repro.stream.checkpoint import Checkpoint

TINY_OVERRIDES = {
    "population.n_customers": 48,
    "workload.days": 2,
    "workload.n_shards": 6,
    "execution.compress": False,
}


@pytest.fixture(scope="module")
def tiny_scenario():
    return get_scenario("baseline-geo").with_overrides(TINY_OVERRIDES)


@pytest.fixture(scope="module")
def reference_digest(tiny_scenario, tmp_path_factory):
    """The single-process stream digest — the fleet acceptance oracle."""
    directory = tmp_path_factory.mktemp("single")
    result = run_stream_capture(tiny_scenario.stream_config(), directory)
    return result.rollup.state_digest()


# -- partition planning ------------------------------------------------------


def test_plan_partitions_covers_shards_disjointly(tiny_scenario):
    plan = plan_partitions(tiny_scenario, partitions=4)
    assert plan.n_partitions == 4
    assert plan.n_shards == 6
    assert plan.partitions[0].shard_lo == 0
    assert plan.partitions[-1].shard_hi == plan.n_shards
    for before, after in zip(plan.partitions, plan.partitions[1:]):
        assert before.shard_hi == after.shard_lo  # contiguous, disjoint
        assert before.customer_hi == after.customer_lo
    assert plan.partitions[0].customer_lo == 0
    assert plan.partitions[-1].customer_hi == plan.n_customers
    # sizes differ by at most one shard (same divmod as plan_shards)
    sizes = [spec.n_shards for spec in plan.partitions]
    assert max(sizes) - min(sizes) <= 1


def test_plan_partitions_is_deterministic(tiny_scenario):
    assert plan_partitions(tiny_scenario, 3) == plan_partitions(tiny_scenario, 3)


def test_plan_partitions_clamps_to_shard_count(tiny_scenario):
    plan = plan_partitions(tiny_scenario, partitions=99)
    assert plan.n_partitions == plan.n_shards == 6
    assert [spec.n_shards for spec in plan.partitions] == [1] * 6


def test_plan_partitions_rejects_bad_count(tiny_scenario):
    with pytest.raises(ValueError):
        plan_partitions(tiny_scenario, partitions=0)


def test_partition_identities_are_distinct(tiny_scenario):
    plan = plan_partitions(tiny_scenario, partitions=4)
    keys = [spec.capture_key for spec in plan.partitions]
    assert len(set(keys)) == 4
    assert plan.base_capture_key not in keys  # a slice is never the whole
    seeds = [spec.fault_seed for spec in plan.partitions]
    assert len(set(seeds)) == 4  # independent fault domains
    assert [spec.name for spec in plan.partitions] == [
        "p000", "p001", "p002", "p003",
    ]


def test_fleet_section_is_digest_neutral(tiny_scenario):
    tuned = tiny_scenario.with_overrides(
        {"fleet.partitions": 8, "fleet.max_parallel": 2}
    )
    assert tuned.digest() == tiny_scenario.digest()
    assert (
        plan_partitions(tuned, 2).base_capture_key
        == plan_partitions(tiny_scenario, 2).base_capture_key
    )


def test_fleet_section_validates(tiny_scenario):
    for bad in (
        {"fleet.partitions": 0},
        {"fleet.max_parallel": 0},
        {"fleet.straggler_timeout_s": 0},
        {"fleet.max_heals": -1},
    ):
        with pytest.raises(ScenarioError):
            tiny_scenario.with_overrides(bad)


# -- worker fault domains ----------------------------------------------------


def test_partition_fault_plan_scopes_kill_points(tiny_scenario):
    plan = plan_partitions(tiny_scenario, partitions=3)
    fleet_plan = FaultPlan(
        seed=7,
        kill_at=(
            "p001:stream:w0:spilled",
            "p000:stream:w1:committed",
            "stream:w0:committed",
            "fleet:merge",
        ),
    )
    mine = partition_fault_plan(fleet_plan, plan.partitions[1])
    assert mine.kill_at == ("stream:w0:spilled", "stream:w0:committed")
    assert mine.seed == plan.partitions[1].fault_seed
    other = partition_fault_plan(fleet_plan, plan.partitions[2])
    assert other.kill_at == ("stream:w0:committed",)  # untargeted arms everywhere
    healed = partition_fault_plan(fleet_plan, plan.partitions[1], heal=True)
    assert healed.kill_at == ()  # heals resume clean
    assert partition_fault_plan(None, plan.partitions[0]) is None
    assert partition_kill_prefix(1) == "p001:"


def test_checkpoint_progress():
    done = Checkpoint(capture_key="k", n_windows=4, windows_done=4, rollup_digest="d")
    half = Checkpoint(capture_key="k", n_windows=4, windows_done=2, rollup_digest="d")
    empty = Checkpoint(capture_key="k", n_windows=4, windows_done=0, rollup_digest="d")
    assert done.progress() == 1.0
    assert half.progress() == 0.5
    assert empty.progress() == 0.0
    degenerate = Checkpoint(
        capture_key="k", n_windows=0, windows_done=0, rollup_digest="d"
    )
    assert degenerate.progress() == 1.0


def test_resolve_workers_divides_affinity_across_slots():
    affinity = resolve_workers(0)
    assert resolve_workers(0, slots=affinity + 5) == 1  # floor at one
    assert resolve_workers(0, slots=1) == affinity
    assert resolve_workers(3, slots=8) == 3  # explicit counts are verbatim
    with pytest.raises(ValueError):
        resolve_workers(0, slots=0)


# -- the acceptance oracle ---------------------------------------------------


def test_fleet_digest_matches_single_stream(
    tiny_scenario, reference_digest, tmp_path
):
    result = run_fleet_capture(
        tiny_scenario, tmp_path / "fleet", partitions=3, max_parallel=2
    )
    assert result.digest == reference_digest
    assert [state.status for state in result.states] == ["done"] * 3
    assert result.total_heals == 0
    # the merged artifact reloads to the same bytes
    assert result.merged_path == tmp_path / "fleet" / MERGED_ROLLUP
    assert StreamRollup.load(result.merged_path).state_digest() == reference_digest
    manifest = load_fleet_manifest(tmp_path / "fleet")
    assert manifest["status"] == "complete"
    assert manifest["merged_digest"] == reference_digest
    telemetry = json.loads((tmp_path / "fleet" / FLEET_TELEMETRY).read_text())
    assert [row["partition"] for row in telemetry] == ["p000", "p001", "p002"]
    assert all(row["status"] == "done" for row in telemetry)
    assert sum(row["flows"] for row in telemetry) > 0
    rendered = render_fleet_telemetry(result.telemetry_rows)
    assert "Partition" in rendered and "p002" in rendered and "total" in rendered


def test_single_partition_fleet_matches(tiny_scenario, reference_digest, tmp_path):
    result = run_fleet_capture(tiny_scenario, tmp_path / "fleet", partitions=1)
    assert result.digest == reference_digest


def test_fleet_heals_sigkilled_worker(tiny_scenario, reference_digest, tmp_path):
    chaos = FaultPlan(kill_at=("p001:stream:w0:spilled",))
    result = run_fleet_capture(
        tiny_scenario,
        tmp_path / "fleet",
        partitions=3,
        max_parallel=2,
        faults=chaos,
    )
    assert result.digest == reference_digest  # bit-identical across the crash
    assert result.states[1].heals == 1
    assert result.states[0].heals == result.states[2].heals == 0
    manifest = load_fleet_manifest(tmp_path / "fleet")
    assert manifest["partitions"][1]["heals"] == 1
    assert manifest["status"] == "complete"


def test_fleet_gives_up_after_max_heals(tiny_scenario, tmp_path):
    scenario = tiny_scenario.with_overrides({"fleet.max_heals": 0})
    chaos = FaultPlan(kill_at=("p000:stream:w0:spilled",))
    with pytest.raises(CaptureError, match="p000 failed"):
        run_fleet_capture(
            scenario, tmp_path / "fleet", partitions=2, faults=chaos
        )
    manifest = load_fleet_manifest(tmp_path / "fleet")
    assert manifest["status"] == "failed"


def test_straggler_is_killed_and_healed(
    tiny_scenario, reference_digest, tmp_path, monkeypatch
):
    def stalling_entry(scenario, partition, directory, heal=False, faults=None):
        if partition.index == 1 and not heal:
            time.sleep(60)  # never checkpoints: a true straggler
        partition_process_entry(
            scenario, partition, directory, heal=heal, faults=faults
        )

    # the fork inherits the patched symbol the coordinator spawns with
    monkeypatch.setattr(
        fleet_coordinator, "partition_process_entry", stalling_entry
    )
    result = run_fleet_capture(
        tiny_scenario,
        tmp_path / "fleet",
        partitions=2,
        max_parallel=2,
        straggler_timeout_s=2.0,
    )
    assert result.digest == reference_digest
    assert result.states[1].straggler_kills == 1
    assert result.states[1].heals == 1
    assert result.states[0].straggler_kills == 0


# -- coordinator resume ------------------------------------------------------


def test_fresh_directory_refuses_silent_overwrite(tiny_scenario, tmp_path):
    run_fleet_capture(tiny_scenario, tmp_path / "fleet", partitions=2)
    with pytest.raises(FileExistsError):
        run_fleet_capture(tiny_scenario, tmp_path / "fleet", partitions=2)


def test_resume_without_manifest_fails(tiny_scenario, tmp_path):
    with pytest.raises(FileNotFoundError):
        run_fleet_capture(
            tiny_scenario, tmp_path / "fleet", partitions=2, resume=True
        )


def test_resume_of_complete_fleet_is_idempotent(
    tiny_scenario, reference_digest, tmp_path
):
    first = run_fleet_capture(tiny_scenario, tmp_path / "fleet", partitions=2)
    attempts = [state.attempts for state in first.states]
    again = run_fleet_capture(
        tiny_scenario, tmp_path / "fleet", partitions=2, resume=True
    )
    assert again.digest == reference_digest
    # no partition re-ran: the manifest short-circuit reused the capture
    assert [state.attempts for state in again.states] == attempts
    assert all(state.status == "done" for state in again.states)
    # ... and the merge's time split survives the rewritten manifest
    assert load_fleet_manifest(tmp_path / "fleet")["merge"]["windows"] > 0


def test_merge_time_split_is_persisted_and_printed(tiny_scenario, tmp_path):
    lines = []
    result = run_fleet_capture(
        tiny_scenario, tmp_path / "fleet", partitions=2, on_event=lines.append
    )
    merge = load_fleet_manifest(tmp_path / "fleet")["merge"]
    assert merge["windows"] == result.plan.n_windows
    assert merge["flows"] == result.rollup.flows_total
    assert merge["assemble_s"] > 0 and merge["fold_s"] > 0
    assert merge["seconds"] >= merge["assemble_s"] + merge["fold_s"]
    at = next(i for i, line in enumerate(lines) if line.startswith("merging 2"))
    assert "assembly" in lines[at + 1] and "fold" in lines[at + 1]


def test_resume_rebuilds_missing_merge_without_rerunning(
    tiny_scenario, reference_digest, tmp_path
):
    first = run_fleet_capture(tiny_scenario, tmp_path / "fleet", partitions=2)
    (tmp_path / "fleet" / MERGED_ROLLUP).unlink()  # coordinator died pre-merge
    again = run_fleet_capture(
        tiny_scenario, tmp_path / "fleet", partitions=2, resume=True
    )
    assert again.digest == reference_digest
    assert [state.attempts for state in again.states] == [
        state.attempts for state in first.states
    ]  # partitions were complete on disk: only the merge re-ran


def test_resume_rejects_changed_partition_count(tiny_scenario, tmp_path):
    run_fleet_capture(tiny_scenario, tmp_path / "fleet", partitions=2)
    with pytest.raises(ValueError, match="partition counts"):
        run_fleet_capture(
            tiny_scenario, tmp_path / "fleet", partitions=3, resume=True
        )


def test_resume_rejects_different_scenario(tiny_scenario, tmp_path):
    run_fleet_capture(tiny_scenario, tmp_path / "fleet", partitions=2)
    other = tiny_scenario.with_overrides({"workload.seed": 9999})
    with pytest.raises(ValueError, match="different scenario"):
        run_fleet_capture(other, tmp_path / "fleet", partitions=2, resume=True)


def test_fleet_kill_points_enumerate_coordinator_lifecycle():
    points = fleet_kill_points(2)
    assert points == [
        "fleet:init",
        "fleet:planned",
        "fleet:p000:done",
        "fleet:p001:done",
        "fleet:merge",
        "fleet:done",
    ]


def test_merge_refuses_incomplete_partition(tiny_scenario, tmp_path):
    plan = plan_partitions(tiny_scenario, partitions=2)
    for spec in plan.partitions:
        run_partition(
            tiny_scenario,
            spec,
            tmp_path / spec.name,
            max_windows=1 if spec.index == 1 else None,
        )
    assert load_checkpoint(tmp_path / "p001").complete is False
    with pytest.raises(CaptureError, match="incomplete"):
        merge_partition_captures([tmp_path / "p000", tmp_path / "p001"])


# -- CLI ---------------------------------------------------------------------


def _fleet_cli_args(directory: Path, *extra: str):
    return [
        "fleet",
        "--scenario",
        "baseline-geo",
        "--customers",
        "48",
        "--days",
        "2",
        "--set",
        "workload.n_shards=6",
        "--no-compress",
        "--dir",
        str(directory),
        *extra,
    ]


def test_cli_fleet_end_to_end(reference_digest, tmp_path, capsys):
    code = main(_fleet_cli_args(tmp_path / "fleet", "--partitions", "3"))
    out = capsys.readouterr().out
    assert code == 0
    assert "Fleet capture telemetry" in out
    assert f"merged digest {reference_digest}" in out
    assert "3 partitions" in out
    assert (tmp_path / "fleet" / FLEET_MANIFEST).exists()
    assert (tmp_path / "fleet" / FLEET_TELEMETRY).exists()


def test_cli_fleet_existing_dir_is_exit_2(tmp_path, capsys):
    assert main(_fleet_cli_args(tmp_path / "fleet", "--partitions", "2")) == 0
    capsys.readouterr()
    assert main(_fleet_cli_args(tmp_path / "fleet", "--partitions", "2")) == 2
    assert "cannot run fleet capture" in capsys.readouterr().err


def test_cli_fleet_resume_completes(reference_digest, tmp_path, capsys):
    assert main(_fleet_cli_args(tmp_path / "fleet", "--partitions", "2")) == 0
    capsys.readouterr()
    code = main(
        _fleet_cli_args(tmp_path / "fleet", "--partitions", "2", "--resume")
    )
    out = capsys.readouterr().out
    assert code == 0
    assert f"merged digest {reference_digest}" in out


def test_cli_fleet_resumes_manifest_with_merge_tree_key(
    reference_digest, tmp_path, capsys
):
    """A ``fleet.json`` that carries the retired ``merge_tree`` key
    still loads, and ``--resume`` finishes the fleet."""
    fleet_dir = tmp_path / "fleet"
    assert main(_fleet_cli_args(fleet_dir, "--partitions", "2")) == 0
    capsys.readouterr()
    manifest = load_fleet_manifest(fleet_dir)
    manifest["merge_tree"] = "balanced"
    (fleet_dir / FLEET_MANIFEST).write_text(json.dumps(manifest))
    (fleet_dir / MERGED_ROLLUP).unlink()  # resume must merge again
    assert load_fleet_manifest(fleet_dir)["merge_tree"] == "balanced"
    code = main(_fleet_cli_args(fleet_dir, "--partitions", "2", "--resume"))
    assert code == 0
    assert f"merged digest {reference_digest}" in capsys.readouterr().out
    assert "merge_tree" not in load_fleet_manifest(fleet_dir)


def test_cli_fleet_rejects_bad_partition_count(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(_fleet_cli_args(tmp_path / "fleet", "--partitions", "0"))
