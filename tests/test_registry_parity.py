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
  numerically below, each within a bound derived from its bank's bin
  width). ``test_report_oracle`` checks the exact reports against
  per-flow numpy group-bys.
* **claim parity** — every headline claim passes or fails alike on a
  frame and on a fold of it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import claims, registry
from repro.analysis.source import FrameSource, load_capture
from repro.cli import main
from repro.scenario import get_scenario

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
    # the night/peak claim reads both result types alike
    (congo_gap,) = [c for c in claims.CLAIMS if c.name == "Fig11 Congo night - peak median"]
    for result in (by_frame, by_rollup):
        assert np.isfinite(congo_gap.query(result))
    assert congo_gap.query(by_frame) == (
        by_frame.night_boxes["Congo"].median - by_frame.peak_boxes["Congo"].median
    )


def _quantile_span(hist, row: int, q: float = 0.5) -> float:
    """The width of the bins holding the samples a linearly interpolated
    ``q`` quantile of ``row`` reads. The histogram's own quantile lies
    inside them too, so the span bounds the two paths' gap."""
    position = (hist.total(row) - 1) * q
    ranks = [np.floor(position) + 1, np.ceil(position) + 1]
    first, last = np.searchsorted(hist.under[row] + np.cumsum(hist.counts[row]), ranks)
    return float(hist.edges[last + 1] - hist.edges[first])


def _bin_mass(hist, row: int, x: float) -> float:
    """The share of ``row`` in the bin holding ``x``: the most a CDF read
    at ``x`` moves by interpolating inside that bin."""
    idx = int(np.searchsorted(hist.edges, x, side="right")) - 1
    return float(hist.counts[row, idx] / hist.total(row))


def test_fig5_counts_exact_medians_binned(sources):
    from repro.analysis.reports import fig5_volumes

    frame_src, store_src = sources
    by_frame = fig5_volumes.compute(frame_src.to_frame())
    rollup = store_src.to_rollup()
    by_rollup = fig5_volumes.from_rollup(rollup)
    for country in by_frame.flow_counts:
        assert by_rollup.idle_fraction(country) == pytest.approx(
            by_frame.idle_fraction(country), nan_ok=True
        )
        # the 1 GB / 10 GB thresholds are decade bin edges
        assert by_rollup.heavy_downloader_pct(country) == pytest.approx(
            by_frame.heavy_downloader_pct(country), abs=1e-9, nan_ok=True
        )
        assert by_rollup.heavy_uploader_pct(country) == pytest.approx(
            by_frame.heavy_uploader_pct(country), abs=1e-9, nan_ok=True
        )
        span = _quantile_span(rollup.h5_flows, by_rollup.flow_counts[country])
        assert by_rollup.median_flows(country) == pytest.approx(
            by_frame.median_flows(country), abs=span
        )


def test_fig8_quartiles_binned_fractions_exact(sources):
    from repro.analysis.reports import fig8_satellite_rtt

    frame_src, store_src = sources
    rollup = store_src.to_rollup()
    by_frame = fig8_satellite_rtt.compute_fig8a(frame_src.to_frame())
    by_rollup = fig8_satellite_rtt.from_rollup(rollup)
    for country in by_frame.samples:
        assert by_rollup.minimum_ms(country) == pytest.approx(by_frame.minimum_ms(country))
        for period, hist in (("night", rollup.h8_night), ("peak", rollup.h8_peak)):
            row = by_rollup.samples[country][period]
            quartiles = zip(
                (0.25, 0.5, 0.75),
                by_rollup.quartiles_ms(country, period),
                by_frame.quartiles_ms(country, period),
            )
            for q, binned, exact in quartiles:
                assert binned == pytest.approx(exact, abs=_quantile_span(hist, row, q))
            # 1, 1.5 and 2 s are bin edges
            for ms in (1000.0, 1500.0, 2000.0):
                assert by_rollup.fraction_under(country, period, ms) == pytest.approx(
                    by_frame.fraction_under(country, period, ms), abs=1e-9
                )


def test_fig8b_counts_exact_medians_binned(sources):
    from repro.analysis.reports import fig8b_rtt_timeseries

    frame_src, store_src = sources
    rollup = store_src.to_rollup()
    by_frame = fig8b_rtt_timeseries.compute(frame_src.to_frame())
    by_rollup = fig8b_rtt_timeseries.from_rollup(rollup)
    for country, medians in by_frame.medians_ms.items():
        np.testing.assert_array_equal(by_rollup.counts[country], by_frame.counts[country])
        base = rollup.country_row(country) * 24
        for hour in np.flatnonzero(by_frame.counts[country]):
            assert by_rollup.medians_ms[country][hour] == pytest.approx(
                medians[hour], abs=_quantile_span(rollup.h8_hour, base + hour)
            )


def test_fig9_medians_and_fractions_binned(sources):
    from repro.analysis.reports import fig9_ground_rtt

    frame_src, store_src = sources
    rollup = store_src.to_rollup()
    by_frame = fig9_ground_rtt.compute(frame_src.to_frame())
    by_rollup = fig9_ground_rtt.from_rollup(rollup)
    for country in by_frame.samples:
        row = by_rollup.samples[country]
        assert by_rollup.median_ms(country) == pytest.approx(
            by_frame.median_ms(country), abs=_quantile_span(rollup.h9_cnt, row)
        )
        for ms in (15.0, 40.0, 120.0, 250.0):
            assert by_rollup.fraction_below(country, ms) == pytest.approx(
                by_frame.fraction_below(country, ms),
                abs=_bin_mass(rollup.h9_cnt, row, ms) + 1e-12,
            )


# --- the headline claims grade alike on both paths -------------------------


@pytest.fixture(scope="module")
def seed11_grades():
    """Each headline claim's pass flag from the frame path and from one
    fold of the same ``baseline-geo`` 120 × 3, seed-11 capture."""
    scenario = get_scenario("baseline-geo").with_overrides(
        {"population.n_customers": 120, "workload.days": 3, "workload.seed": 11}
    )
    frame = scenario.build_generator().generate()
    rollup = FrameSource(frame).to_rollup()
    return [
        {c.name: c.passes(v) for c, v in claims.grade(claims.HEADLINE, results)}
        for results in (
            claims.measure(claims.HEADLINE, rollup, frame),
            claims.measure(claims.HEADLINE, rollup),
        )
    ]


#: Figure 4's frame path clips each flow at its country's 99.5th
#: percentile volume, which a rollup cannot fold; on this capture the
#: frame's Congo peak is 8 h and the rollup's 13 h (ROADMAP, "One Fig 4
#: curve and one scorecard").
_FIG4_CLIP_GAP = pytest.mark.xfail(strict=True, reason="Fig 4 frame path clips, rollup cannot")


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(c.name, marks=_FIG4_CLIP_GAP) if c.name == "Fig4 Congo peak hour (UTC)"
        else c.name
        for c in claims.HEADLINE
        if c.report != "fig12"  # the capture has no video sessions
    ],
)
def test_headline_claim_grades_alike_on_frame_and_rollup(name, seed11_grades):
    by_frame, by_rollup = seed11_grades
    assert by_frame[name] == by_rollup[name]


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
