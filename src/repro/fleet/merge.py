"""Reduce completed partition captures into one analysis-ready rollup.

Bit-identity is the whole design. ``StreamRollup.merge`` of partition
*states* cannot reproduce the single-process digest exactly — the
byte-volume accumulators are float sums, and float addition is not
associative across regroupings (integer state is exact under
regrouping, float state only ``allclose``). What *is* exact is frame
concatenation: ``FlowFrame.concat`` is a pure pool-validated
``np.concatenate``, so one window's partition frames, concatenated in
partition order (which is shard order), are the single-process window
frame byte for byte.

The merge therefore works at **window-frame granularity**: each
window's partition frames are concatenated once and folded into a
fresh :class:`StreamRollup` in window-index order — the byte-exact
float-addition order of the single-process ``_WindowCommitter`` fold.
Memory stays bounded: one window's frames are resident at a time,
never the capture.

Per-partition ``rollup.npz``/checkpoint digests remain as integrity
guards (``verify=True`` re-checks them before merging), exactly the
contract :func:`~repro.stream.producer._recover_rollup` relies on.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Union

from repro.analysis.dataset import FlowFrame
from repro.analysis.source import CaptureError
from repro.stream.checkpoint import load_checkpoint, rollup_path
from repro.stream.rollup import StreamRollup
from repro.stream.store import FlowStore


@dataclass
class MergeStats:
    """Where a merge's time went, filled in by
    :func:`merge_partition_captures`: ``assemble_s`` reads each window's
    partition frames and concatenates them, ``fold_s`` folds the result
    into the merged rollup; ``seconds`` is the whole merge, partition
    verification included."""

    seconds: float = 0.0
    assemble_s: float = 0.0
    fold_s: float = 0.0
    windows: int = 0
    flows: int = 0

    def to_payload(self) -> Dict[str, float]:
        return asdict(self)

    def describe(self) -> str:
        return (
            f"merged {self.flows:,} flows in {self.windows} windows in "
            f"{self.seconds:.2f} s: assembly {self.assemble_s:.2f} s, "
            f"fold {self.fold_s:.2f} s"
        )


def merge_partition_captures(
    directories: Sequence[Union[str, Path]],
    verify: bool = True,
    on_window: Optional[Callable[[int, int], None]] = None,
    stats: Optional[MergeStats] = None,
) -> StreamRollup:
    """Merge completed partition capture directories into one rollup.

    ``directories`` must be in partition-index order. With
    ``verify=True`` every partition's saved rollup state is re-checked
    against its checkpoint digest first, so a torn partition artifact
    is diagnosed here instead of corrupting the merge. ``on_window``
    observes ``(window_index, flows)`` as each window folds; ``stats``,
    if given, receives the merge's time split.

    The result's ``state_digest()`` equals the single-process
    ``repro stream`` digest of the same scenario — the fleet acceptance
    oracle.
    """
    if not directories:
        raise ValueError("need at least one partition directory")
    stats = MergeStats() if stats is None else stats
    start = time.perf_counter()
    stores = [FlowStore.open(d) for d in directories]
    checkpoints = []
    for directory, store in zip(directories, stores):
        checkpoint = load_checkpoint(directory)
        if checkpoint is None:
            raise CaptureError(f"{directory}: no checkpoint — not a capture")
        if not checkpoint.complete:
            raise CaptureError(
                f"{directory}: partition incomplete "
                f"({checkpoint.windows_done}/{checkpoint.n_windows} windows); "
                "heal it before merging"
            )
        checkpoints.append(checkpoint)
    entries = stores[0].windows
    for directory, store in zip(directories[1:], stores[1:]):
        if store.windows != entries:
            raise CaptureError(
                f"{directory}: window plan differs from partition 0 — "
                "the partitions belong to different captures"
            )
    if verify:
        for directory, checkpoint in zip(directories, checkpoints):
            saved = StreamRollup.load(rollup_path(directory))
            if saved.state_digest() != checkpoint.rollup_digest:
                raise CaptureError(
                    f"{directory}: rollup state does not match its "
                    "checkpoint digest — partition is corrupt"
                )
    pools = stores[0].pools
    rollup = StreamRollup(
        pools["countries"], pools["services"], pools["resolvers"]
    )
    for entry in entries:
        t0 = time.perf_counter()
        frame = FlowFrame.concat(
            [store.read_window(entry.index) for store in stores]
        )
        t1 = time.perf_counter()
        rollup.update(frame)
        stats.assemble_s += t1 - t0
        stats.fold_s += time.perf_counter() - t1
        stats.windows += 1
        stats.flows += len(frame)
        if on_window is not None:
            on_window(entry.index, len(frame))
        del frame
    stats.seconds = time.perf_counter() - start
    return rollup
