"""The fleet coordinator: dispatch, watch, heal, merge.

Drives one :class:`~repro.fleet.plan.FleetPlan` to completion:

* **dispatch** — partitions run as forked worker subprocesses through a
  pool bounded at ``fleet.max_parallel`` (platforms without ``fork``
  fall back to sequential in-process execution, same bytes);
* **watch** — every poll tick reads each live worker's checkpoint and
  its :meth:`~repro.stream.checkpoint.Checkpoint.progress`; a worker
  whose progress stalls past ``fleet.straggler_timeout_s`` is SIGKILLed
  and treated exactly like a crash;
* **heal** — a dead worker (crashed, killed, or straggler-reaped) is
  respawned through the PR-5 resume path with kill-points stripped, up
  to ``fleet.max_heals`` times per partition;
* **merge** — completed partitions reduce through
  :mod:`repro.fleet.merge` into ``merged_rollup.npz``, loadable by
  ``repro report``/``scorecard`` as a plain
  :class:`~repro.analysis.source.RollupSource`.

State lives in an atomically-written ``fleet.json`` manifest
(:func:`repro.faults.atomic_write_bytes`, op ``fleet.manifest`` — the
chaos matrix's IO faults extend to the coordinator), but the
*authoritative* progress record is each partition's own checkpoint: a
coordinator killed at any of its ``fleet:*`` kill-points resumes by
re-reading the partition directories, so a stale manifest can never
mis-resume the fleet. Per-partition telemetry (flows/s, windows,
retries, heals) is serialized to ``fleet_telemetry.json`` next to the
manifest and rendered as the ``repro fleet`` summary table.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from repro.analysis.aggregate import format_table
from repro.analysis.source import CaptureError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultStats,
    atomic_write_bytes,
    resolve_injector,
)
from repro.fleet.merge import MergeStats, merge_partition_captures
from repro.fleet.plan import FleetPlan, PartitionSpec, plan_partitions
from repro.fleet.worker import partition_process_entry, run_partition
from repro.stream.checkpoint import Checkpoint, load_checkpoint
from repro.stream.rollup import StreamRollup

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scenario import Scenario
    from repro.serve.snapshot import SnapshotHub

FLEET_SCHEMA = 1
FLEET_MANIFEST = "fleet.json"
FLEET_TELEMETRY = "fleet_telemetry.json"
MERGED_ROLLUP = "merged_rollup.npz"
PARTITIONS_DIR = "partitions"


@dataclass
class PartitionState:
    """Lifecycle record of one partition, as tracked in ``fleet.json``."""

    index: int
    status: str = "pending"
    """``pending`` → ``running`` → ``done``; detours through
    ``healing`` after a crash/straggler kill, terminal ``failed``."""
    attempts: int = 0
    """Worker processes spawned for this partition (first run + heals)."""
    heals: int = 0
    """Respawns after a crash or straggler kill."""
    straggler_kills: int = 0
    """Workers SIGKILLed by the coordinator for stalled progress."""
    windows_done: int = 0
    n_windows: int = 0

    def to_payload(self) -> Dict:
        return dataclasses.asdict(self)


@dataclass
class FleetResult:
    """What a completed fleet capture produced."""

    fleet_dir: Path
    plan: FleetPlan
    rollup: StreamRollup
    digest: str
    states: List[PartitionState]
    merged_path: Path
    telemetry_rows: List[Dict]
    fault_stats: FaultStats = field(default_factory=FaultStats)

    @property
    def total_heals(self) -> int:
        return sum(state.heals for state in self.states)


def partition_dir(fleet_dir: Union[str, Path], partition: PartitionSpec) -> Path:
    return Path(fleet_dir) / PARTITIONS_DIR / partition.name


# -- manifest ----------------------------------------------------------------


def _write_manifest(
    fleet_dir: Path,
    plan: FleetPlan,
    states: List[PartitionState],
    status: str,
    injector: FaultInjector,
    merged_digest: str = "",
    merge: Optional[Dict] = None,
) -> None:
    payload = {
        "schema": FLEET_SCHEMA,
        "status": status,
        "scenario_digest": plan.scenario_digest,
        "base_capture_key": plan.base_capture_key,
        "n_partitions": plan.n_partitions,
        "n_shards": plan.n_shards,
        "n_windows": plan.n_windows,
        "merged_digest": merged_digest,
        # the merge's time split (MergeStats), once a merge has run
        "merge": merge or {},
        "partitions": [
            {
                **state.to_payload(),
                "dir": f"{PARTITIONS_DIR}/{spec.name}",
                "shard_range": [spec.shard_lo, spec.shard_hi],
                "customer_range": [spec.customer_lo, spec.customer_hi],
                "capture_key": spec.capture_key,
            }
            for spec, state in zip(plan.partitions, states)
        ],
    }
    atomic_write_bytes(
        fleet_dir / FLEET_MANIFEST,
        lambda h: h.write(json.dumps(payload, indent=2).encode()),
        injector=injector,
        op="fleet.manifest",
    )


def load_fleet_manifest(fleet_dir: Union[str, Path]) -> Optional[Dict]:
    """The fleet manifest, or ``None``; :class:`CaptureError` if damaged."""
    path = Path(fleet_dir) / FLEET_MANIFEST
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        raise CaptureError(f"corrupt fleet manifest {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CaptureError(f"corrupt fleet manifest {path}: not a JSON object")
    if payload.get("schema") != FLEET_SCHEMA:
        raise CaptureError(
            f"fleet manifest schema {payload.get('schema')} != {FLEET_SCHEMA}"
        )
    return payload


# -- telemetry ---------------------------------------------------------------


def fleet_telemetry_rows(
    plan: FleetPlan,
    states: List[PartitionState],
    fleet_dir: Union[str, Path],
) -> List[Dict]:
    """Per-partition counters for the summary table and the bench harness."""
    rows: List[Dict] = []
    for spec, state in zip(plan.partitions, states):
        checkpoint = _safe_checkpoint(partition_dir(fleet_dir, spec))
        telemetry = checkpoint.telemetry if checkpoint is not None else []
        flows = sum(t.flows for t in telemetry)
        busy = sum(t.busy_seconds for t in telemetry)
        rows.append(
            {
                "partition": spec.name,
                "shards": f"{spec.shard_lo}-{spec.shard_hi - 1}",
                "customers": spec.customer_hi - spec.customer_lo,
                "windows_done": state.windows_done,
                "n_windows": state.n_windows,
                "flows": flows,
                "flows_per_s": flows / busy if busy > 0 else 0.0,
                "busy_seconds": busy,
                "faults": sum(t.faults for t in telemetry),
                "io_retries": sum(t.io_retries for t in telemetry),
                "attempts": state.attempts,
                "heals": state.heals,
                "straggler_kills": state.straggler_kills,
                "status": state.status,
            }
        )
    return rows


def render_fleet_telemetry(rows: List[Dict]) -> str:
    """The per-partition summary table printed by ``repro fleet``."""
    table_rows = [
        (
            row["partition"],
            row["shards"],
            f"{row['windows_done']}/{row['n_windows']}",
            f"{row['flows']:,}",
            f"{row['flows_per_s']:,.0f}",
            f"{row['busy_seconds']:.2f}",
            f"{row['faults']}",
            f"{row['io_retries']}",
            f"{row['heals']}",
            f"{row['straggler_kills']}",
            row["status"],
        )
        for row in rows
    ]
    total_flows = sum(row["flows"] for row in rows)
    total_busy = sum(row["busy_seconds"] for row in rows)
    table_rows.append(
        (
            "total",
            "",
            "",
            f"{total_flows:,}",
            f"{total_flows / total_busy:,.0f}" if total_busy > 0 else "-",
            f"{total_busy:.2f}",
            f"{sum(row['faults'] for row in rows)}",
            f"{sum(row['io_retries'] for row in rows)}",
            f"{sum(row['heals'] for row in rows)}",
            f"{sum(row['straggler_kills'] for row in rows)}",
            "",
        )
    )
    return format_table(
        [
            "Partition",
            "Shards",
            "Windows",
            "Flows",
            "Flows/s",
            "Busy s",
            "Faults",
            "Retries",
            "Heals",
            "Straggled",
            "Status",
        ],
        table_rows,
        title="Fleet capture telemetry",
    )


# -- coordination ------------------------------------------------------------


def _safe_checkpoint(directory: Path) -> Optional[Checkpoint]:
    """A partition's checkpoint; ``None`` when missing *or* unreadable.

    The coordinator polls while the worker commits; an unreadable
    checkpoint is treated as "no progress yet", never as fatal — the
    worker's own resume path heals real damage.
    """
    try:
        return load_checkpoint(directory)
    except CaptureError:
        return None


@dataclass
class _LiveWorker:
    process: "multiprocessing.process.BaseProcess"
    spec: PartitionSpec
    last_progress: float
    last_change: float


class _FleetPublisher:
    """Publishes the coordinator's merged partial state to a serve hub.

    Every partition's committed prefix is itself consistent (its
    checkpoint digest covers it); merging the loadable, digest-verified
    prefixes gives the fleet-level snapshot the live server renders.
    Publication is cheap relative to the capture but not free (it
    loads and merges every partition rollup), so it is rate-limited and
    only fires when the fleet-wide committed window count moves.
    """

    def __init__(
        self,
        hub: "SnapshotHub",
        plan: FleetPlan,
        fleet_dir: Path,
        min_interval_s: float = 0.25,
    ) -> None:
        self.hub = hub
        self.plan = plan
        self.fleet_dir = fleet_dir
        self.min_interval_s = min_interval_s
        self._last_windows = -1
        self._last_time = 0.0

    def maybe_publish(self, states: List[PartitionState]) -> None:
        from repro.serve.snapshot import RollupSnapshot

        total_done = sum(state.windows_done for state in states)
        now = time.monotonic()
        if total_done == self._last_windows:
            return
        if now - self._last_time < self.min_interval_s and total_done > 0:
            return
        merged: Optional[StreamRollup] = None
        windows_covered = 0
        for spec in self.plan.partitions:
            directory = partition_dir(self.fleet_dir, spec)
            checkpoint = _safe_checkpoint(directory)
            if checkpoint is None or checkpoint.windows_done <= 0:
                continue
            try:
                rollup = StreamRollup.load(directory / "rollup.npz")
            except (CaptureError, FileNotFoundError):
                continue
            if rollup.state_digest() != checkpoint.rollup_digest:
                continue  # mid-commit: skip this poll, catch it next tick
            windows_covered += checkpoint.windows_done
            merged = rollup if merged is None else merged.merge(rollup)
        if merged is None:
            return
        self._last_windows = total_done
        self._last_time = now
        self.hub.publish(
            RollupSnapshot(
                rollup=merged,
                digest=merged.state_digest(),
                capture_key=self.plan.base_capture_key,
                windows_done=windows_covered,
                n_windows=self.plan.n_windows * self.plan.n_partitions,
            )
        )

    def publish_final(self, rollup: StreamRollup, digest: str) -> None:
        """The completed, merged capture — digest equals the merge
        artifact's (and the single-process stream's)."""
        from repro.serve.snapshot import RollupSnapshot

        total = self.plan.n_windows * self.plan.n_partitions
        self.hub.publish(
            RollupSnapshot(
                rollup=rollup.copy(),
                digest=digest,
                capture_key=self.plan.base_capture_key,
                windows_done=total,
                n_windows=total,
            )
        )


def run_fleet_capture(
    scenario: "Scenario",
    fleet_dir: Union[str, Path],
    partitions: Optional[int] = None,
    max_parallel: Optional[int] = None,
    straggler_timeout_s: Optional[float] = None,
    resume: bool = False,
    faults: Optional[FaultPlan] = None,
    on_event: Optional[Callable[[str], None]] = None,
    poll_interval_s: float = 0.05,
    snapshot_hub: Optional["SnapshotHub"] = None,
) -> FleetResult:
    """Run (or resume) a distributed fleet capture into ``fleet_dir``.

    The explicit keyword arguments override the scenario's ``fleet``
    section. ``faults`` (or the scenario's ``faults`` section) arms the
    chaos plan: the coordinator honours ``fleet:*`` kill-points and IO
    faults on its manifest writes; each worker receives the plan scoped
    to its own fault domain (see
    :func:`repro.fleet.worker.partition_fault_plan`). ``on_event``
    observes one-line progress strings.

    The merged rollup's ``state_digest()`` is bit-identical to a
    single-process ``repro stream`` of the same scenario — for any
    partition count, any ``max_parallel``, and across worker crashes
    and heals.

    ``snapshot_hub`` (a :class:`repro.serve.SnapshotHub`) receives the
    coordinator's merged *partial* state as partitions commit windows
    — each publication merges the digest-verified committed prefixes —
    and the final merged rollup on completion, so ``repro fleet
    --serve-port`` serves the fleet exactly like a live stream.
    """
    fleet_dir = Path(fleet_dir)
    max_parallel = (
        max_parallel if max_parallel is not None else scenario.fleet.max_parallel
    )
    if max_parallel < 1:
        raise ValueError(f"max_parallel must be >= 1 (got {max_parallel})")
    timeout = (
        straggler_timeout_s
        if straggler_timeout_s is not None
        else scenario.fleet.straggler_timeout_s
    )
    if timeout <= 0:
        raise ValueError(f"straggler_timeout_s must be > 0 (got {timeout})")
    max_heals = scenario.fleet.max_heals
    fault_plan = faults if faults is not None else scenario.fault_plan()
    injector = resolve_injector(fault_plan)
    injector.kill_point("fleet:init")
    plan = plan_partitions(scenario, partitions)
    emit = on_event if on_event is not None else (lambda _line: None)

    manifest = load_fleet_manifest(fleet_dir)
    if manifest is not None:
        if not resume:
            raise FileExistsError(
                f"{fleet_dir} already holds a fleet capture; pass resume=True "
                "to continue it or choose a fresh directory"
            )
        if manifest["scenario_digest"] != plan.scenario_digest:
            raise ValueError(
                "fleet directory belongs to a different scenario "
                f"(digest {manifest['scenario_digest']} != "
                f"{plan.scenario_digest})"
            )
        if manifest["n_partitions"] != plan.n_partitions:
            raise ValueError(
                "fleet directory was planned with "
                f"{manifest['n_partitions']} partitions, not "
                f"{plan.n_partitions} — partition counts cannot change "
                "mid-capture"
            )
    elif resume:
        raise FileNotFoundError(f"nothing to resume: no manifest in {fleet_dir}")
    fleet_dir.mkdir(parents=True, exist_ok=True)
    (fleet_dir / PARTITIONS_DIR).mkdir(exist_ok=True)

    # Disk is the authority: partition state is recomputed from each
    # partition's checkpoint, never trusted from a possibly-stale
    # manifest (the coordinator itself is in the crash matrix).
    states: List[PartitionState] = []
    by_index = {
        row["index"]: row for row in (manifest or {}).get("partitions", [])
    }
    for spec in plan.partitions:
        checkpoint = _safe_checkpoint(partition_dir(fleet_dir, spec))
        done = checkpoint is not None and checkpoint.complete
        previous = by_index.get(spec.index, {})
        states.append(
            PartitionState(
                index=spec.index,
                status="done" if done else "pending",
                attempts=previous.get("attempts", 0),
                heals=previous.get("heals", 0),
                straggler_kills=previous.get("straggler_kills", 0),
                windows_done=(
                    checkpoint.windows_done if checkpoint is not None else 0
                ),
                n_windows=plan.n_windows,
            )
        )
    _write_manifest(fleet_dir, plan, states, "running", injector)
    injector.kill_point("fleet:planned")

    publisher: Optional[_FleetPublisher] = None
    if snapshot_hub is not None:
        publisher = _FleetPublisher(
            snapshot_hub, plan, fleet_dir,
            min_interval_s=scenario.serve.publish_interval_s,
        )
        publisher.maybe_publish(states)  # resumed prefixes serve at once

    merged_path = fleet_dir / MERGED_ROLLUP
    if (
        resume
        and manifest is not None
        and manifest.get("status") == "complete"
        and merged_path.exists()
        and all(state.status == "done" for state in states)
    ):
        rollup = StreamRollup.load(merged_path)
        if rollup.state_digest() == manifest.get("merged_digest"):
            if publisher is not None:
                publisher.publish_final(rollup, rollup.state_digest())
            rows = fleet_telemetry_rows(plan, states, fleet_dir)
            _write_manifest(
                fleet_dir, plan, states, "complete", injector,
                merged_digest=rollup.state_digest(), merge=manifest.get("merge"),
            )
            return FleetResult(
                fleet_dir=fleet_dir,
                plan=plan,
                rollup=rollup,
                digest=rollup.state_digest(),
                states=states,
                merged_path=merged_path,
                telemetry_rows=rows,
                fault_stats=injector.stats,
            )

    pending: List[PartitionSpec] = [
        spec
        for spec, state in zip(plan.partitions, states)
        if state.status != "done"
    ]
    can_fork = "fork" in multiprocessing.get_all_start_methods()
    if can_fork:
        _dispatch_forked(
            scenario, plan, states, pending, fleet_dir,
            max_parallel, timeout, max_heals, poll_interval_s,
            injector, fault_plan, emit, publisher,
        )
    else:  # pragma: no cover - platforms without fork
        # Sequential in-process fallback: same bytes, no crash
        # isolation — worker kill-points are stripped (heal-mode plan)
        # because a SIGKILL here would take down the coordinator.
        for spec in pending:
            state = states[spec.index]
            state.status, state.attempts = "running", state.attempts + 1
            result = run_partition(
                scenario, spec, partition_dir(fleet_dir, spec), heal=True,
                faults=fault_plan,
            )
            state.status = "done"
            state.windows_done = result.checkpoint.windows_done
            if publisher is not None:
                publisher.maybe_publish(states)
            _write_manifest(fleet_dir, plan, states, "running", injector)
            injector.kill_point(f"fleet:{spec.name}:done")

    injector.kill_point("fleet:merge")
    emit(f"merging {plan.n_partitions} partitions")
    merge_stats = MergeStats()
    rollup = merge_partition_captures(
        [partition_dir(fleet_dir, spec) for spec in plan.partitions],
        stats=merge_stats,
    )
    emit(merge_stats.describe())
    rollup.save(merged_path, injector=injector)
    digest = rollup.state_digest()
    if publisher is not None:
        publisher.publish_final(rollup, digest)
    rows = fleet_telemetry_rows(plan, states, fleet_dir)
    atomic_write_bytes(
        fleet_dir / FLEET_TELEMETRY,
        lambda h: h.write(json.dumps(rows, indent=2).encode()),
        injector=injector,
        op="fleet.telemetry",
    )
    _write_manifest(
        fleet_dir, plan, states, "complete", injector,
        merged_digest=digest, merge=merge_stats.to_payload(),
    )
    injector.kill_point("fleet:done")
    return FleetResult(
        fleet_dir=fleet_dir,
        plan=plan,
        rollup=rollup,
        digest=digest,
        states=states,
        merged_path=merged_path,
        telemetry_rows=rows,
        fault_stats=injector.stats,
    )


def _dispatch_forked(
    scenario: "Scenario",
    plan: FleetPlan,
    states: List[PartitionState],
    pending: List[PartitionSpec],
    fleet_dir: Path,
    max_parallel: int,
    timeout: float,
    max_heals: int,
    poll_interval_s: float,
    injector: FaultInjector,
    fault_plan: Optional[FaultPlan],
    emit: Callable[[str], None],
    publisher: Optional["_FleetPublisher"] = None,
) -> None:
    """The bounded worker pool: spawn, poll progress, reap, heal."""
    context = multiprocessing.get_context("fork")
    queue: List[PartitionSpec] = list(pending)
    live: Dict[int, _LiveWorker] = {}
    try:
        while queue or live:
            while queue and len(live) < max_parallel:
                spec = queue.pop(0)
                state = states[spec.index]
                heal = state.heals > 0
                process = context.Process(
                    target=partition_process_entry,
                    args=(
                        scenario, spec, partition_dir(fleet_dir, spec),
                        heal, fault_plan,
                    ),
                    name=f"fleet-{spec.name}",
                )
                process.start()
                state.status = "running"
                state.attempts += 1
                now = time.monotonic()
                checkpoint = _safe_checkpoint(partition_dir(fleet_dir, spec))
                live[spec.index] = _LiveWorker(
                    process=process,
                    spec=spec,
                    last_progress=(
                        checkpoint.progress() if checkpoint is not None else 0.0
                    ),
                    last_change=now,
                )
                _write_manifest(fleet_dir, plan, states, "running", injector)
                emit(
                    f"{spec.name}: {'healing' if heal else 'started'} "
                    f"(attempt {state.attempts}, shards "
                    f"{spec.shard_lo}-{spec.shard_hi - 1})"
                )
            time.sleep(poll_interval_s)
            now = time.monotonic()
            for index in list(live):
                worker = live[index]
                spec, state = worker.spec, states[index]
                directory = partition_dir(fleet_dir, spec)
                checkpoint = _safe_checkpoint(directory)
                progress = (
                    checkpoint.progress() if checkpoint is not None else 0.0
                )
                if checkpoint is not None:
                    state.windows_done = checkpoint.windows_done
                if progress > worker.last_progress:
                    worker.last_progress = progress
                    worker.last_change = now
                if worker.process.is_alive():
                    if now - worker.last_change > timeout:
                        # Stalled past the deadline: reap it like a
                        # crash — the next loop iteration heals it.
                        os.kill(worker.process.pid, signal.SIGKILL)
                        state.straggler_kills += 1
                        emit(
                            f"{spec.name}: no progress for {timeout:.1f} s — "
                            "killed as straggler"
                        )
                        worker.process.join()
                    else:
                        continue
                worker.process.join()
                exitcode = worker.process.exitcode
                del live[index]
                checkpoint = _safe_checkpoint(directory)
                if (
                    exitcode == 0
                    and checkpoint is not None
                    and checkpoint.complete
                ):
                    state.status = "done"
                    state.windows_done = checkpoint.windows_done
                    _write_manifest(
                        fleet_dir, plan, states, "running", injector
                    )
                    emit(
                        f"{spec.name}: done "
                        f"({checkpoint.windows_done} windows, "
                        f"{state.heals} heals)"
                    )
                    injector.kill_point(f"fleet:{spec.name}:done")
                    continue
                if state.heals >= max_heals:
                    state.status = "failed"
                    _write_manifest(
                        fleet_dir, plan, states, "failed", injector
                    )
                    raise CaptureError(
                        f"partition {spec.name} failed after {state.heals} "
                        f"heals (last exit code {exitcode}); fleet aborted — "
                        "fix the cause and rerun with resume=True"
                    )
                state.heals += 1
                state.status = "healing"
                queue.insert(0, spec)
                _write_manifest(fleet_dir, plan, states, "running", injector)
                emit(
                    f"{spec.name}: worker died (exit {exitcode}) — healing "
                    f"via resume ({state.heals}/{max_heals})"
                )
            if publisher is not None:
                # Serve whatever prefix the partitions have committed so
                # far; the publisher skips mid-commit partition states.
                publisher.maybe_publish(states)
    finally:
        for worker in live.values():  # abort path: no orphans
            if worker.process.is_alive():
                worker.process.terminate()
            worker.process.join()
