"""Reduce completed partition captures into one analysis-ready rollup.

Bit-identity is the whole design. A customer lives in exactly one
partition, so merging the partition rollup states is exact for every
count, minimum and set, and for every float sum keyed by customer,
customer-day or session. Only the float sums over many customers (the
banks :class:`StreamRollup` marks ``ordered``, and ``vol_day``) depend
on flow order, as float addition is not associative. The merge takes
the verified partition states, merges them, and folds the ordered
state again in window order from a projected read of
:attr:`StreamRollup.ORDERED_COLUMNS` (and the session columns, if the
capture has sessions). One window's partition columns, concatenated in
partition order (shard order), are the single-process window's columns
byte for byte, so the sums add in the single-process order. One
window's projected columns are resident at a time.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.analysis.source import CaptureError
from repro.stream.checkpoint import load_checkpoint, rollup_path
from repro.stream.rollup import StreamRollup
from repro.stream.store import FlowStore


@dataclass
class MergeStats:
    """Where a merge's time went, filled in by
    :func:`merge_partition_captures`: ``assemble_s`` reads each window's
    projected partition columns and concatenates them, ``fold_s`` merges
    the partition states and folds the ordered state again; ``seconds``
    is the whole merge, partition verification included."""

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
    stats: Optional[MergeStats] = None,
) -> StreamRollup:
    """Merge completed partition capture directories into one rollup.

    ``directories`` must be in partition-index order. Every partition's
    saved rollup state is checked against its checkpoint digest before
    it is merged, so a torn partition artifact is diagnosed here
    instead of corrupting the merge; partitions that share a customer
    are refused. ``stats``, if given, receives the merge's time split.

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
    states = []
    for directory, checkpoint in zip(directories, checkpoints):
        state = StreamRollup.load(rollup_path(directory))
        if state.state_digest() != checkpoint.rollup_digest:
            raise CaptureError(
                f"{directory}: rollup state does not match its "
                "checkpoint digest — partition is corrupt"
            )
        states.append(state)

    t0 = time.perf_counter()
    rollup, seen = states[0], set()
    for directory, state in zip(directories, states):
        ids = {cid for country in state.countries for cid in state.customers_of(country)}
        if not seen.isdisjoint(ids):
            raise CaptureError(
                f"{directory}: shares customers with an earlier partition — "
                "the partitions belong to different captures"
            )
        seen |= ids
        if state is not rollup:
            rollup.merge(state)
    refold = StreamRollup(rollup.countries, rollup.services, rollup.resolvers)
    columns = StreamRollup.ORDERED_COLUMNS
    if rollup.qoe_sessions.any():
        columns += StreamRollup.SESSION_COLUMNS
    stats.fold_s += time.perf_counter() - t0
    for entry in entries:
        t0 = time.perf_counter()
        parts = [store.read_window(entry.index, columns=columns) for store in stores]
        window = SimpleNamespace(countries=rollup.countries, **{
            name: np.concatenate([part[name] for part in parts]) for name in columns
        })
        del parts
        t1 = time.perf_counter()
        if len(window.day):
            refold.fold_ordered(window)
        stats.assemble_s += t1 - t0
        stats.fold_s += time.perf_counter() - t1
        stats.windows += 1
        stats.flows += len(window.day)
        del window
    rollup.take_ordered(refold)
    rollup.windows_folded = len(entries)
    stats.seconds = time.perf_counter() - start
    return rollup
