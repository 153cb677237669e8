"""Checkpoint/resume for streaming captures.

After every window the producer commits three artifacts, in order:

1. the window's npz shard file (``store.py``, atomic),
2. the folded rollup state (``rollup.npz``, atomic),
3. ``checkpoint.json`` — the *commit point*: next window index, the
   capture's content key, the rollup digest, and per-window telemetry.

A kill between any two steps is safe: on resume, everything at or
beyond ``windows_done`` is regenerated and atomically overwritten,
and everything before it is trusted because the checkpoint that
covered it only ever published after its window and rollup landed.
(A kill between steps 2 and 3 leaves ``rollup.npz`` one window ahead
of the checkpoint; the producer detects the digest mismatch and
re-folds the rollup from the committed windows instead of refusing.)

Resume is *bit-identical* to an uninterrupted run because each
(shard, window) cell draws from its own
``SeedSequence``-derived stream (:func:`repro.parallel.shard_seed`)
— regenerating window *k* needs no RNG state from windows ``< k`` —
and because the rollup folds windows in index order with associative
merges, so "load saved state, keep folding" reproduces the exact
float-addition order of the one-shot run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from repro.analysis.source import CaptureError
from repro.faults import FaultInjector, atomic_write_bytes

#: Bump on layout changes (refuse, never mis-resume). Unchanged by the
#: fault counters: the new telemetry fields default to zero, so
#: pre-fault checkpoints keep loading.
CHECKPOINT_SCHEMA = 1

_CHECKPOINT = "checkpoint.json"
ROLLUP_FILE = "rollup.npz"


@dataclass
class WindowTelemetry:
    """Per-window counters printed by the ``repro stream`` summary."""

    window: int
    day_lo: int
    day_hi: int
    flows: int
    gen_seconds: float
    fold_seconds: float
    bytes_spilled: int
    peak_rss_mb: float
    faults: int = 0
    """Fault events injected while producing this window."""
    io_retries: int = 0
    """IO attempts retried (after injected or real transient errors)."""
    spill_seconds: float = 0.0
    """Time writing the window's npz spill (split out of the fold so
    stage overlap is observable; defaults to zero so pre-split
    checkpoints keep loading)."""
    handovers: int = 0
    """Satellite handovers the window's time span crossed (always zero
    for static delay sources; defaults so pre-constellation
    checkpoints keep loading)."""
    save_seconds: float = 0.0
    """Time writing the rollup state and its fsync, split out of
    ``fold_seconds`` (which covers ``rollup.update`` only); defaults to
    zero so checkpoints written before the split keep loading."""

    @property
    def flows_per_s(self) -> float:
        busy = self.busy_seconds
        return self.flows / busy if busy > 0 else float("nan")

    @property
    def busy_seconds(self) -> float:
        """Total stage time of this window (gen + spill + fold + save).

        Under the pipelined producer the stages of *different* windows
        overlap, so the capture's wall clock is less than the sum of
        these — that gap is the pipelining win."""
        return (self.gen_seconds + self.spill_seconds
                + self.fold_seconds + self.save_seconds)


@dataclass
class Checkpoint:
    """The resume cursor of a capture directory."""

    capture_key: str
    n_windows: int
    windows_done: int
    rollup_digest: str
    telemetry: List[WindowTelemetry] = field(default_factory=list)
    schema: int = CHECKPOINT_SCHEMA

    @property
    def complete(self) -> bool:
        return self.windows_done >= self.n_windows

    def progress(self) -> float:
        """Fraction of windows committed, in ``[0, 1]``.

        The coordinator-facing probe: ``repro.fleet`` polls it (via
        :func:`load_checkpoint`) to tell a straggling worker from one
        that is still landing windows, and ``repro stream-report``
        prints it for partial captures.
        """
        if self.n_windows <= 0:
            return 1.0
        return min(1.0, self.windows_done / self.n_windows)


def checkpoint_path(directory: Union[str, Path]) -> Path:
    return Path(directory) / _CHECKPOINT


def rollup_path(directory: Union[str, Path]) -> Path:
    return Path(directory) / ROLLUP_FILE


def write_checkpoint(
    directory: Union[str, Path],
    checkpoint: Checkpoint,
    injector: Optional[FaultInjector] = None,
) -> None:
    """Atomically publish ``checkpoint`` as the directory's cursor."""
    payload = asdict(checkpoint)
    atomic_write_bytes(
        checkpoint_path(directory),
        lambda h: h.write(json.dumps(payload, indent=2).encode()),
        injector=injector,
        op="checkpoint.write",
    )


def load_checkpoint(directory: Union[str, Path]) -> Optional[Checkpoint]:
    """The directory's checkpoint, or ``None`` if none was committed.

    A damaged ``checkpoint.json`` (truncated, bit-flipped, not an
    object) raises :class:`CaptureError` with a diagnosis rather than
    a raw JSON traceback.
    """
    path = checkpoint_path(directory)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        raise CaptureError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CaptureError(f"corrupt checkpoint {path}: not a JSON object")
    if payload.get("schema") != CHECKPOINT_SCHEMA:
        raise CaptureError(
            f"checkpoint schema {payload.get('schema')} != {CHECKPOINT_SCHEMA}"
        )
    try:
        telemetry = [
            WindowTelemetry(**row) for row in payload.pop("telemetry", [])
        ]
        payload.pop("schema", None)
        return Checkpoint(telemetry=telemetry, **payload)
    except TypeError as exc:
        raise CaptureError(f"corrupt checkpoint {path}: {exc}") from exc
