"""Registry-driven parity: frame vs store vs rollup report paths.

Parametrized over :mod:`repro.analysis.registry`, so a newly
registered report is covered automatically:

* **store parity** — every report renders byte-identically from the
  spilled capture (column-projected window reads, or the saved rollup)
  and from the fully materialized frame. This also proves each frame
  path's declared ``columns`` cover everything its ``compute`` touches.
* **rollup parity** — the exact reports have only the rollup path, so
  a fold of the frame and the window-by-window saved rollup render the
  same bytes; binned reports must agree on table structure and row
  labels (their quantiles interpolate inside histogram bins, checked
  numerically below). ``test_report_oracle`` checks the exact reports
  against per-flow numpy group-bys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import registry
from repro.analysis.source import FrameSource, load_capture
from repro.cli import main

registry.ensure_loaded()
ALL_REPORTS = registry.names()
ROLLUP_CAPABLE = [s.name for s in registry.specs() if s.compute_rollup]
#: The reports whose sketches are exact: they register only the rollup
#: path, and a frame or store source folds into it.
EXACT = {"table1", "fig2", "fig3", "fig6", "table2", "fig12"}


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """(FrameSource, StoreSource) over one small streamed capture."""
    directory = tmp_path_factory.mktemp("parity") / "cap"
    assert main([
        "stream", "--customers", "120", "--days", "2", "--seed", "11",
        "--window-days", "1", "--no-compress", "--dir", str(directory),
    ]) == 0
    store = load_capture(directory)
    return FrameSource(store.to_frame()), store


@pytest.mark.parametrize("name", ALL_REPORTS)
def test_store_renders_identically_to_frame(name, sources):
    frame_src, store_src = sources
    assert registry.run(name, store_src) == registry.run(name, frame_src)


@pytest.mark.parametrize("name", ROLLUP_CAPABLE)
def test_rollup_parity(name, sources):
    frame_src, store_src = sources
    frame_render = registry.run(name, frame_src)
    rollup_render = registry.run(name, store_src, prefer="rollup")
    if name in EXACT:
        assert rollup_render == frame_render
    else:
        # binned sketches: same table shape and row labels (fig8's
        # rollup path legitimately drops the frame-only 8b panel, so
        # the rollup render may be a prefix of the frame render)
        frame_lines = frame_render.splitlines()
        rollup_lines = rollup_render.splitlines()
        assert 0 < len(rollup_lines) <= len(frame_lines)
        for f_line, r_line in zip(frame_lines, rollup_lines):
            assert f_line.split()[:1] == r_line.split()[:1]


def test_exact_set_is_what_we_promise():
    """The exact reports are rollup-only and still run from every source
    kind; change this pin consciously if a sketch changes."""
    rollup_only = {s.name for s in registry.specs() if s.compute_frame is None}
    assert rollup_only == EXACT
    for name in EXACT:
        spec = registry.get(name)
        assert spec.columns == ()
        assert spec.sources == registry.SOURCE_KINDS


# --- numeric tolerance for the binned sketches ----------------------------


def test_fig10_shares_exact_medians_binned(sources):
    from repro.analysis.reports import fig10_dns

    frame_src, store_src = sources
    frame = frame_src.to_frame()
    rollup = store_src.to_rollup()
    by_frame = fig10_dns.compute(frame)
    by_rollup = fig10_dns.from_rollup(rollup)
    assert by_rollup.shares_pct == by_frame.shares_pct
    for resolver, median in by_frame.median_response_ms.items():
        approx = by_rollup.median_response_ms[resolver]
        assert approx == pytest.approx(median, rel=0.20)


def test_fig7_counts_exact(sources):
    from repro.analysis.reports import fig7_service_volume

    frame_src, store_src = sources
    by_frame = fig7_service_volume.compute(frame_src.to_frame())
    by_rollup = fig7_service_volume.from_rollup(store_src.to_rollup())
    for category, per_country in by_frame.boxes.items():
        for country, stats in per_country.items():
            assert by_rollup.boxes[category][country].n == stats.n


def test_fig11_counts_exact_medians_binned(sources):
    from repro.analysis.reports import fig11_throughput

    frame_src, store_src = sources
    by_frame = fig11_throughput.compute(frame_src.to_frame())
    by_rollup = fig11_throughput.from_rollup(store_src.to_rollup())
    for country in by_frame.countries():
        n = by_frame.n_samples(country)
        assert by_rollup.n_samples(country) == n
        if n > 50:
            assert by_rollup.median_mbps(country) == pytest.approx(
                by_frame.median_mbps(country), rel=0.15
            )


# --- drift guards ---------------------------------------------------------


def test_every_report_module_registers():
    import repro.analysis.reports as reports_pkg

    registered = {spec.module.rsplit(".", 1)[-1] for spec in registry.specs()}
    assert registered == set(reports_pkg.__all__)


def test_cli_help_lists_every_report(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["report", "--help"])
    assert excinfo.value.code == 0
    # argparse wraps long help lines mid-name; compare whitespace-free
    text = "".join(capsys.readouterr().out.split())
    for name in ALL_REPORTS:
        assert name in text


def test_registry_rejects_bad_specs():
    with pytest.raises(ValueError, match="no compute entry point"):
        registry.register(
            name="ghost", title="", module="x", columns=(), render=str
        )
    with pytest.raises(ValueError, match="unknown columns"):
        registry.register(
            name="ghost", title="", module="x", columns=("nope",),
            compute_frame=lambda f: f, render=str,
        )
    with pytest.raises(ValueError, match="already registered"):
        registry.register(
            name="fig2", title="", module="elsewhere",
            columns=(), compute_frame=lambda f: f, render=str,
        )


def test_run_rejects_frame_only_report_from_rollup(sources):
    from repro.analysis.registry import ReportSourceError

    _, store_src = sources
    with pytest.raises(ReportSourceError, match="web-qoe"):
        registry.run("web-qoe", store_src, prefer="rollup")


def test_readme_capability_matrix_in_sync():
    """README's capability matrix is generated output; regenerate and
    paste between the markers if this fails."""
    from pathlib import Path

    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    begin = "<!-- capability-matrix:begin -->"
    end = "<!-- capability-matrix:end -->"
    assert begin in text and end in text
    block = text.split(begin, 1)[1].split(end, 1)[0].strip()
    assert block == registry.capability_matrix_markdown().strip()


def test_capability_matrix_lists_every_report():
    matrix = registry.capability_matrix_markdown()
    for name in ALL_REPORTS:
        assert f"`{name}`" in matrix
    # rollup-incapable reports show a dash in the rollup column
    appendix_row = next(
        line for line in matrix.splitlines() if "`appendix`" in line
    )
    assert appendix_row.rstrip("| ").endswith("—")
