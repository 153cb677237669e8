"""Lightweight telemetry for streaming captures.

Per-window counters (flows/s, bytes spilled, peak RSS) accumulate in
the checkpoint so an interrupted capture's history survives the kill;
this module renders them as the ``repro stream`` summary table and
provides the process peak-RSS probe.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.aggregate import format_table
from repro.stream.checkpoint import WindowTelemetry


def peak_rss_mb() -> float:
    """Lifetime peak resident set size of this process, in MB.

    Uses ``getrusage`` (kilobytes on Linux, bytes on macOS); returns
    ``nan`` where the ``resource`` module is unavailable (non-POSIX).
    """
    try:
        import resource
        import sys
    except ImportError:  # pragma: no cover - non-POSIX
        return float("nan")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        return peak / 1e6
    return peak / 1e3


def render_telemetry(rows: Sequence[WindowTelemetry]) -> str:
    """The per-window summary table of a streaming capture.

    The Faults/Retries columns count injected fault events and retried
    IO attempts per window (zero on a healthy run with no chaos plan).
    """
    table_rows: List[tuple] = []
    for t in rows:
        table_rows.append(
            (
                t.window,
                f"{t.day_lo}..{t.day_hi - 1}",
                f"{t.flows:,}",
                f"{t.flows_per_s:,.0f}",
                f"{t.bytes_spilled / 1e6:.1f}",
                f"{t.gen_seconds * 1e3:,.0f}",
                f"{t.spill_seconds * 1e3:,.0f}",
                f"{t.fold_seconds * 1e3:,.0f}",
                f"{t.save_seconds * 1e3:,.0f}",
                f"{t.busy_seconds:.2f}",
                f"{t.peak_rss_mb:.0f}",
                f"{t.faults}",
                f"{t.io_retries}",
                f"{t.handovers}",
            )
        )
    total_flows = sum(t.flows for t in rows)
    total_secs = sum(t.busy_seconds for t in rows)
    table_rows.append(
        (
            "total",
            "",
            f"{total_flows:,}",
            f"{total_flows / total_secs:,.0f}" if total_secs > 0 else "-",
            f"{sum(t.bytes_spilled for t in rows) / 1e6:.1f}",
            f"{sum(t.gen_seconds for t in rows) * 1e3:,.0f}",
            f"{sum(t.spill_seconds for t in rows) * 1e3:,.0f}",
            f"{sum(t.fold_seconds for t in rows) * 1e3:,.0f}",
            f"{sum(t.save_seconds for t in rows) * 1e3:,.0f}",
            f"{total_secs:.2f}",
            f"{max((t.peak_rss_mb for t in rows), default=float('nan')):.0f}",
            f"{sum(t.faults for t in rows)}",
            f"{sum(t.io_retries for t in rows)}",
            f"{sum(t.handovers for t in rows)}",
        )
    )
    return format_table(
        [
            "Window",
            "Days",
            "Flows",
            "Flows/s",
            "Spilled MB",
            "Gen ms",
            "Spill ms",
            "Fold ms",
            "Save ms",
            "Seconds",
            "Peak RSS MB",
            "Faults",
            "Retries",
            "Handovers",
        ],
        table_rows,
        title="Streaming capture telemetry",
    )
