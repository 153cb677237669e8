"""The fleet worker: one partition, executed as a normal stream capture.

A worker owns exactly one :class:`~repro.fleet.plan.PartitionSpec` and
runs :func:`repro.stream.run_stream_capture` restricted to its shard
range — every PR-2/PR-5/PR-6 guarantee (atomic commits, named
kill-points, checkpoint/resume bit-identity, pipelined generation)
applies unchanged inside the partition. The only fleet-specific logic
here is fault-domain scoping: which parts of a fleet-wide chaos plan a
given worker executes, and how a *heal* attempt differs from a first
attempt.

Kill-point naming: a plan entry ``p002:stream:w1:spilled`` targets
partition 2's worker (the prefix is stripped before arming); an
un-prefixed non-``fleet:`` entry like ``stream:w0:committed`` arms in
*every* worker; ``fleet:*`` entries belong to the coordinator and are
never armed in workers. Heal attempts strip ``kill_at`` entirely — the
same discipline as the crash-matrix's clean resume — so a healed
partition always makes progress instead of dying at the same point
forever.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.faults import PARTITION_KILL_PREFIX, FaultPlan, partition_kill_prefix
from repro.fleet.plan import PartitionSpec
from repro.parallel import resolve_workers
from repro.stream.checkpoint import WindowTelemetry, load_checkpoint
from repro.stream.producer import StreamResult, run_stream_capture

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scenario import Scenario


def partition_fault_plan(
    plan: Optional[FaultPlan], partition: PartitionSpec, heal: bool = False
) -> Optional[FaultPlan]:
    """Scope a fleet-wide chaos plan to one partition's fault domain.

    The worker's plan is reseeded with the partition's own
    ``fault_seed`` (independent fault streams per worker) and its
    ``kill_at`` reduced to the points this worker should honour. On a
    heal attempt every kill-point is dropped so the resume is clean.
    """
    if plan is None:
        return None
    prefix = partition_kill_prefix(partition.index)
    kill_at = []
    if not heal:
        for name in plan.kill_at:
            if name.startswith(prefix):
                kill_at.append(name[len(prefix):])
            elif not (
                PARTITION_KILL_PREFIX.match(name) or name.startswith("fleet:")
            ):
                kill_at.append(name)
    return dataclasses.replace(
        plan, seed=partition.fault_seed, kill_at=tuple(kill_at)
    )


def run_partition(
    scenario: "Scenario",
    partition: PartitionSpec,
    directory: Union[str, Path],
    heal: bool = False,
    faults: Optional[FaultPlan] = None,
    on_window: Optional[Callable[[WindowTelemetry], None]] = None,
    max_windows: Optional[int] = None,
) -> StreamResult:
    """Run (or continue) one partition's capture into ``directory``.

    Resume is automatic: a directory with a committed checkpoint is
    continued, a fresh one is initialized — the coordinator respawns
    crashed or straggling workers through this same entry point.

    Nested-parallelism sizing: with ``execution.workers`` on automatic
    (``0``), the partition's shard pool gets
    ``max(1, cores // fleet.max_parallel)`` workers so a full fleet of
    siblings shares the affinity set instead of each claiming all of it.
    """
    config = scenario.stream_config()
    workers = resolve_workers(
        scenario.execution.workers, slots=scenario.fleet.max_parallel
    )
    config.workload = dataclasses.replace(config.workload, n_workers=workers)
    plan = faults if faults is not None else scenario.fault_plan()
    config.faults = partition_fault_plan(plan, partition, heal=heal)
    resume = load_checkpoint(directory) is not None
    return run_stream_capture(
        config,
        directory,
        resume=resume,
        max_windows=max_windows,
        on_window=on_window,
        shard_range=partition.shard_range,
    )


def partition_process_entry(
    scenario: "Scenario",
    partition: PartitionSpec,
    directory: Union[str, Path],
    heal: bool = False,
    faults: Optional[FaultPlan] = None,
) -> None:
    """``multiprocessing.Process`` target for one worker subprocess.

    Runs in a forked child: a normal return exits 0, an exception
    prints its traceback and exits nonzero, and an armed kill-point
    SIGKILLs the child — all three surface to the coordinator as the
    process exit code. ``faults`` is the *fleet-wide* plan; it is
    scoped to this partition's fault domain inside
    :func:`run_partition`.
    """
    run_partition(scenario, partition, directory, heal=heal, faults=faults)
