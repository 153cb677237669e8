"""The ``FlowSource`` protocol — one handle over every capture shape.

The paper computes every table and figure from one aggregation layer
(Section 3.1); the reproduction grew three capture shapes — an
in-memory :class:`~repro.analysis.dataset.FlowFrame`, a spilled
:class:`~repro.stream.store.FlowStore` directory, and mergeable
:class:`~repro.stream.rollup.StreamRollup` sketches. A
:class:`FlowSource` wraps any of them behind two questions a report
can ask:

* :meth:`FlowSource.to_frame` — give me flows (optionally only the
  *columns* I declared, so a spilled capture only decompresses what
  the report reads);
* :meth:`FlowSource.to_rollup` — give me the mergeable sketches.

:func:`load_capture` is the single entry point the CLI uses: it
auto-detects what a path holds (frame ``.npz``, capture directory,
bare rollup state) and raises :class:`CaptureError` with a diagnosis
— unknown path, bad manifest, truncated npz — instead of a traceback.
"""

from __future__ import annotations

import json
import time
import zipfile
from pathlib import Path
from typing import ClassVar, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.analysis.dataset import _ARRAY_FIELDS, _POOL_FIELDS, FlowFrame


class CaptureError(ValueError):
    """A capture artifact could not be understood (message says why).

    Raised by :func:`load_capture` and by every artifact reader in the
    pipeline (store windows, manifests, checkpoints, rollup state) when
    a file is truncated, bit-flipped, or from another schema. Subclasses
    :class:`ValueError` so pre-existing ``except ValueError`` call sites
    keep working; the point is that *corruption is diagnosed, never a
    raw decoder traceback*.
    """


class FlowSource:
    """Abstract handle over one capture, whatever its on-disk shape."""

    #: "frame" | "store" | "rollup" — what the source natively holds.
    kind: ClassVar[str] = "?"

    def to_frame(self, columns: Optional[Sequence[str]] = None) -> FlowFrame:
        """Materialize flows (projected to ``columns`` when the backing
        store supports it). Raises :class:`CaptureError` when flows are
        not recoverable (a bare rollup)."""
        raise NotImplementedError

    def to_rollup(self):
        """The capture's :class:`~repro.stream.StreamRollup` sketches
        (folded on demand when not already materialized, once per
        source: callers share the returned rollup and must not mutate
        it)."""
        raise NotImplementedError

    def describe(self) -> str:
        """One human line for CLI diagnostics."""
        raise NotImplementedError


class FrameSource(FlowSource):
    """A :class:`FlowFrame` already in memory (or loaded from ``.npz``)."""

    kind = "frame"

    def __init__(self, frame: FlowFrame, path: Optional[Path] = None) -> None:
        self.frame = frame
        self.path = path
        self._rollup = None

    def to_frame(self, columns: Optional[Sequence[str]] = None) -> FlowFrame:
        # The frame is already resident — projection would save nothing.
        return self.frame

    def to_rollup(self):
        from repro.stream.rollup import StreamRollup

        if self._rollup is None:
            self._rollup = StreamRollup.for_frame(self.frame).update(self.frame)
        return self._rollup

    def describe(self) -> str:
        origin = f" from {self.path}" if self.path else ""
        return f"frame{origin}: {len(self.frame):,} flows"


class StoreSource(FlowSource):
    """A spilled capture directory — lazy, column-projected reads."""

    kind = "store"

    def __init__(self, store) -> None:
        self.store = store
        self.directory = Path(store.directory)
        self._rollup = None

    def to_frame(self, columns: Optional[Sequence[str]] = None) -> FlowFrame:
        """Concatenate the stored windows into one frame.

        With ``columns``, only those npz members are decompressed; the
        remaining columns are backfilled with their
        :attr:`FlowFrame.COLUMN_FILL` sentinels so the result is a
        well-typed frame that any report declaring those columns can
        consume.
        """
        pools = {name: list(self.store.pools[name]) for name in _POOL_FIELDS}
        if columns is not None:
            unknown = set(columns) - set(_ARRAY_FIELDS)
            if unknown:
                raise KeyError(f"unknown columns {sorted(unknown)}")
        frames: List[FlowFrame] = []
        for _, window in self.store.iter_windows(columns=columns):
            if columns is None:
                frames.append(window)
                continue
            n = len(next(iter(window.values()))) if window else 0
            full: Dict[str, np.ndarray] = {}
            for name in _ARRAY_FIELDS:
                dtype = FlowFrame.COLUMN_DTYPES[name]
                if name in window:
                    full[name] = window[name].astype(dtype, copy=False)
                else:
                    full[name] = np.full(n, FlowFrame.COLUMN_FILL[name], dtype=dtype)
            frames.append(FlowFrame(**pools, **full))
        if not frames:
            return FlowFrame.empty(**pools)
        if len(frames) == 1:
            return frames[0]
        return FlowFrame.concat(frames)

    def to_rollup(self):
        """The rollup of the stored windows: the saved state when it
        loads at the current schema and has folded exactly the windows
        on disk, else a re-fold of those windows. A kill between spill
        and save leaves one more window stored than folded; the saved
        state would then disagree with :meth:`to_frame`."""
        if self._rollup is None:
            self._rollup = self._saved_rollup() or self._fold_windows()
        return self._rollup

    def _saved_rollup(self):
        from repro.stream.checkpoint import rollup_path
        from repro.stream.rollup import StreamRollup

        try:
            rollup = StreamRollup.load(rollup_path(self.directory))
        except (ValueError, KeyError, OSError, zipfile.BadZipFile):
            return None  # missing, schema drift or truncation
        if rollup.windows_folded != self.store.stored_window_count():
            return None
        return rollup

    def _fold_windows(self):
        from repro.stream.rollup import StreamRollup

        pools = self.store.pools
        rollup = StreamRollup(
            pools["countries"], pools["services"], pools["resolvers"]
        )
        for _, window in self.store.iter_windows():
            rollup.update(window)
        return rollup

    def describe(self) -> str:
        stored = self.store.stored_window_count()
        return (
            f"stream capture {self.directory}: {stored}/"
            f"{len(self.store.windows)} windows stored"
        )


class RollupSource(FlowSource):
    """Bare rollup sketches — aggregates only, no flows behind them."""

    kind = "rollup"

    def __init__(self, rollup, path: Optional[Path] = None) -> None:
        self.rollup = rollup
        self.path = path

    def to_frame(self, columns: Optional[Sequence[str]] = None) -> FlowFrame:
        raise CaptureError(
            "rollup sketches cannot reconstruct flows; this report needs "
            "a frame .npz or a stream capture directory"
        )

    def to_rollup(self):
        return self.rollup

    def describe(self) -> str:
        origin = f" from {self.path}" if self.path else ""
        return (
            f"rollup{origin}: {self.rollup.flows_total:,} flows in "
            f"{self.rollup.windows_folded} windows"
        )


def load_capture(path: Union[str, Path]) -> FlowSource:
    """Open ``path`` as whatever capture shape it holds.

    Accepts a frame ``.npz`` (written by :meth:`FlowFrame.save_npz`),
    a stream capture directory (``manifest.json`` + windows), or a
    bare rollup state ``.npz``. Raises :class:`CaptureError` with a
    usable diagnosis for everything else.
    """
    from repro.stream.rollup import StreamRollup

    path = Path(path)
    if not path.exists():
        raise CaptureError(
            f"no such capture: {path} (expected a frame .npz or a stream "
            "capture directory)"
        )
    if path.is_dir():
        return _open_capture_dir(path)

    try:
        with np.load(path, allow_pickle=True) as data:
            members = set(data.files)
    except (zipfile.BadZipFile, ValueError, OSError, EOFError) as exc:
        raise CaptureError(
            f"cannot read {path}: {exc} (truncated download or not an npz?)"
        ) from exc
    if "pool_countries" in members:
        missing = [
            name
            for name in _ARRAY_FIELDS
            if name not in members
        ]
        if missing:
            raise CaptureError(
                f"{path} looks like a frame capture but lacks columns "
                f"{missing} — truncated write?"
            )
        try:
            return FrameSource(FlowFrame.load_npz(path), path=path)
        except (ValueError, zipfile.BadZipFile) as exc:
            raise CaptureError(f"cannot load frame {path}: {exc}") from exc
    if "meta" in members:
        try:
            return RollupSource(StreamRollup.load(path), path=path)
        except CaptureError:
            raise  # already diagnosed by the rollup loader
        except (ValueError, KeyError) as exc:
            raise CaptureError(f"cannot load rollup {path}: {exc}") from exc
    raise CaptureError(
        f"{path} is an npz but neither a frame capture (no pool_* members) "
        "nor a rollup state (no meta member)"
    )


def _open_capture_dir(path: Path) -> "StoreSource":
    """Open a capture directory, tolerating the live-capture race.

    A *running* capture writes ``manifest.json`` atomically
    (write-temp + rename), but a reader can still catch the gap before
    the very first rename lands — ``exists()`` said yes (or no) a
    moment ago, the open/parse says otherwise. Those transient shapes
    (``FileNotFoundError``, a JSON decode error) are retried once
    after a short sleep; if the directory still won't open but its
    ``checkpoint.json`` does, the diagnosis becomes "capture in
    progress (N% complete)" via :meth:`Checkpoint.progress` instead of
    a misleading corruption report.
    """
    from repro.stream.store import FlowStore

    last_exc: Optional[Exception] = None
    for attempt in range(2):
        try:
            if not (path / "manifest.json").exists():
                raise FileNotFoundError(f"no manifest.json in {path}")
            return StoreSource(FlowStore.open(path))
        except (FileNotFoundError, json.JSONDecodeError) as exc:
            # The transient race shapes: retry once, then diagnose.
            last_exc = exc
            if attempt == 0:
                time.sleep(0.05)
                continue
        except CaptureError as exc:
            # The store diagnoses a torn manifest itself; when the tear
            # is a JSON decode error it may be the same transient race,
            # so it earns the same single retry before we re-raise.
            if not isinstance(exc.__cause__, json.JSONDecodeError):
                raise
            last_exc = exc
            if attempt == 0:
                time.sleep(0.05)
                continue
        except ValueError as exc:
            raise CaptureError(f"cannot open capture {path}: {exc}") from exc

    # Still unreadable after the retry. A live checkpoint turns this
    # into a progress report rather than a corruption diagnosis.
    try:
        from repro.stream.checkpoint import load_checkpoint

        checkpoint = load_checkpoint(path)
    except CaptureError:
        checkpoint = None
    if checkpoint is not None:
        raise CaptureError(
            f"capture in progress ({checkpoint.progress():.0%} complete, "
            f"{checkpoint.windows_done}/{checkpoint.n_windows} windows): "
            f"{path} is mid-write ({last_exc}); retry shortly or query it "
            "live with `repro serve`"
        ) from last_exc
    if isinstance(last_exc, CaptureError):
        raise last_exc  # the store's own torn-manifest diagnosis
    if isinstance(last_exc, json.JSONDecodeError):
        raise CaptureError(
            f"bad capture manifest in {path}: {last_exc}"
        ) from last_exc
    raise CaptureError(
        f"{path} is a directory without a manifest.json — not a "
        "stream capture (did the capture run at all?)"
    ) from last_exc
