"""Distributed multi-process capture: partition, dispatch, heal, merge.

The paper's probe watches an entire subscriber population from one
vantage; scaling the reproduction toward millions of subscribers
(ROADMAP north star) splits the capture across a fleet of worker
processes and reduces their outputs. The package is four small layers:

* :mod:`repro.fleet.plan` — deterministic partitioning of a scenario's
  shard plan into disjoint contiguous slices;
* :mod:`repro.fleet.worker` — one partition as an ordinary
  checkpointed stream capture with a scoped fault domain;
* :mod:`repro.fleet.coordinator` — the bounded dispatch pool,
  straggler detection via checkpoint progress, crash healing through
  the resume path, and the ``fleet.json`` manifest;
* :mod:`repro.fleet.merge` — the state merge, plus a window-by-window
  refold of the order-sensitive sums, that reduces partition captures
  into one ``merged_rollup.npz``, bit-identical to the single-process
  stream digest.

See DESIGN.md §13.
"""

from repro.faults import fleet_kill_points, partition_kill_prefix
from repro.fleet.coordinator import (
    FLEET_MANIFEST,
    FLEET_TELEMETRY,
    MERGED_ROLLUP,
    FleetResult,
    PartitionState,
    fleet_telemetry_rows,
    load_fleet_manifest,
    partition_dir,
    render_fleet_telemetry,
    run_fleet_capture,
)
from repro.fleet.merge import MergeStats, merge_partition_captures
from repro.fleet.plan import (
    FleetPlan,
    PartitionSpec,
    partition_dir_name,
    plan_partitions,
)
from repro.fleet.worker import partition_fault_plan, run_partition

__all__ = [
    "FLEET_MANIFEST",
    "FLEET_TELEMETRY",
    "MERGED_ROLLUP",
    "MergeStats",
    "FleetPlan",
    "FleetResult",
    "PartitionSpec",
    "PartitionState",
    "fleet_kill_points",
    "fleet_telemetry_rows",
    "load_fleet_manifest",
    "merge_partition_captures",
    "partition_dir",
    "partition_dir_name",
    "partition_fault_plan",
    "partition_kill_prefix",
    "plan_partitions",
    "render_fleet_telemetry",
    "run_fleet_capture",
]
