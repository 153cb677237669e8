"""Reduce completed partition captures into one analysis-ready rollup.

Bit-identity is the whole design. ``StreamRollup.merge`` of partition
*states* cannot reproduce the single-process digest exactly — the
byte-volume accumulators are float sums, and float addition is not
associative across regroupings (PR 5's associativity tests assert
exactly this: integer state is exact under regrouping, float state
only ``allclose``). What *is* exact and associative is frame
concatenation: ``FlowFrame.concat`` is a pure pool-validated
``np.concatenate``, so nested concats equal flat concats byte for
byte.

The merge tree therefore operates at **window-frame granularity**: an
internal node concatenates its children's frames for one window, the
root folds each fully-assembled window into a fresh
:class:`StreamRollup` in window-index order — the byte-exact
float-addition order of the single-process ``_WindowCommitter`` fold.
Any tree shape over in-order leaves yields the same bytes, which is
what the shape-sweep property tests assert. Memory stays bounded: one
window's frames are resident at a time, never the capture.

Per-partition ``rollup.npz``/checkpoint digests remain as integrity
guards (``verify=True`` re-checks them before merging), exactly the
contract :func:`~repro.stream.producer._recover_rollup` relies on.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.analysis.dataset import FlowFrame
from repro.analysis.source import CaptureError
from repro.stream.checkpoint import load_checkpoint, rollup_path
from repro.stream.rollup import StreamRollup
from repro.stream.store import FlowStore

MERGE_TREE_SHAPES = ("balanced", "left", "right", "random")


@dataclass(frozen=True)
class MergeNode:
    """One node of a binary merge tree over partition indices.

    A leaf names one partition; an internal node concatenates its two
    children. The in-order traversal of any valid tree is
    ``0..n_partitions-1`` — leaf order is partition order is shard
    order, which is what keeps concatenation bit-exact against the
    single-process capture.
    """

    leaf: Optional[int] = None
    left: Optional["MergeNode"] = None
    right: Optional["MergeNode"] = None

    def __post_init__(self) -> None:
        if (self.leaf is None) == (self.left is None or self.right is None):
            raise ValueError("a MergeNode is either a leaf or has two children")

    def leaves(self) -> List[int]:
        """Partition indices in in-order (left-to-right) order."""
        if self.leaf is not None:
            return [self.leaf]
        return self.left.leaves() + self.right.leaves()

    def shape(self) -> str:
        """Parenthesized rendering, e.g. ``((0+1)+(2+3))``."""
        if self.leaf is not None:
            return str(self.leaf)
        return f"({self.left.shape()}+{self.right.shape()})"


def _build(lo: int, hi: int, split_at: Callable[[int, int], int]) -> MergeNode:
    if hi - lo == 1:
        return MergeNode(leaf=lo)
    mid = split_at(lo, hi)
    return MergeNode(
        left=_build(lo, mid, split_at), right=_build(mid, hi, split_at)
    )


def plan_merge_tree(
    n_partitions: int, shape: str = "balanced", seed: Optional[int] = None
) -> MergeNode:
    """A merge tree over partitions ``0..n_partitions-1``.

    Shapes: ``balanced`` (log-depth, the default), ``left``/``right``
    (maximally skewed folds, the degenerate flat-reduce cases), and
    ``random`` (a seed-reproducible random shape — the property tests
    sweep these). Every shape produces the same merged bytes.
    """
    if n_partitions < 1:
        raise ValueError(f"need at least one partition (got {n_partitions})")
    if shape == "balanced":
        return _build(0, n_partitions, lambda lo, hi: (lo + hi) // 2)
    if shape == "left":
        return _build(0, n_partitions, lambda lo, hi: hi - 1)
    if shape == "right":
        return _build(0, n_partitions, lambda lo, hi: lo + 1)
    if shape == "random":
        rng = np.random.default_rng(seed)
        return _build(
            0, n_partitions, lambda lo, hi: int(rng.integers(lo + 1, hi))
        )
    raise ValueError(
        f"unknown merge-tree shape {shape!r} "
        f"(known: {', '.join(MERGE_TREE_SHAPES)})"
    )


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


def _assemble(
    node: MergeNode, stores: Sequence[FlowStore], window_index: int
) -> FlowFrame:
    """One window's frame for the subtree — nested, bit-exact concat."""
    if node.leaf is not None:
        return stores[node.leaf].read_window(window_index)
    return FlowFrame.concat(
        [
            _assemble(node.left, stores, window_index),
            _assemble(node.right, stores, window_index),
        ]
    )


def merge_partition_captures(
    directories: Sequence[Union[str, Path]],
    tree: Optional[MergeNode] = None,
    verify: bool = True,
    on_window: Optional[Callable[[int, int], None]] = None,
    stats: Optional[MergeStats] = None,
) -> StreamRollup:
    """Merge completed partition capture directories into one rollup.

    ``directories`` must be in partition-index order. ``tree`` defaults
    to the balanced shape; any shape gives identical bytes. With
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
    if tree is None:
        tree = plan_merge_tree(len(directories))
    leaves = tree.leaves()
    if leaves != list(range(len(directories))):
        raise ValueError(
            f"merge tree leaves {leaves} are not partitions "
            f"0..{len(directories) - 1} in order"
        )
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
        frame = _assemble(tree, stores, entry.index)
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
