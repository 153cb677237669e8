"""Bounded-memory streaming capture pipeline.

The streaming counterpart of ``WorkloadGenerator.generate()`` +
``FlowFrame``: generate the capture one time window at a time, spill
each window to a capture directory, fold mergeable rollup sketches,
and checkpoint after every window so an interrupted run resumes
bit-identically. See DESIGN.md §8.

Public surface:

* :class:`StreamConfig`, :func:`run_stream_capture`,
  :class:`WindowedProducer`, :func:`plan_windows` — producing.
* :class:`FlowStore` — the on-disk capture directory.
* :class:`StreamRollup`, :class:`HistFamily` — the mergeable rollup
  sketches.
* :func:`load_checkpoint`, :class:`Checkpoint` — resume cursors.
"""

from repro.faults import stream_kill_points
from repro.stream.checkpoint import (
    Checkpoint,
    WindowTelemetry,
    load_checkpoint,
    rollup_path,
)
from repro.stream.producer import (
    StreamConfig,
    StreamResult,
    WindowSpec,
    WindowedProducer,
    partition_capture_key,
    plan_windows,
    run_stream_capture,
)
from repro.stream.rollup import HistFamily, StreamRollup
from repro.stream.store import FlowStore, WindowEntry
from repro.stream.telemetry import peak_rss_mb, render_telemetry

__all__ = [
    "Checkpoint",
    "FlowStore",
    "HistFamily",
    "StreamConfig",
    "StreamResult",
    "StreamRollup",
    "WindowEntry",
    "WindowSpec",
    "WindowTelemetry",
    "WindowedProducer",
    "load_checkpoint",
    "partition_capture_key",
    "peak_rss_mb",
    "plan_windows",
    "render_telemetry",
    "rollup_path",
    "run_stream_capture",
    "stream_kill_points",
]
