"""Tests for ASCII plotting and the LEO comparison geometry."""

import numpy as np
import pytest

from repro.analysis.plotting import ascii_cdf, sparkline
from repro.errant.profiles import BUILTIN_PROFILES
from repro.internet.geo import COUNTRIES
from repro.satcom.geometry import SatelliteGeometry
from repro.satcom.leo import LeoShell


# --- sparkline -----------------------------------------------------------


def test_sparkline_shape():
    line = sparkline([0, 1, 2, 3, 4, 5, 6, 7, 8])
    assert len(line) == 9
    assert line[0] == " " and line[-1] == "█"


def test_sparkline_resamples_to_width():
    line = sparkline(list(range(100)), width=20)
    assert len(line) == 20


def test_sparkline_flat_and_empty():
    assert sparkline([5, 5, 5]) == "   "  # flat → lowest level
    assert sparkline([]) == ""
    assert sparkline([float("nan")]) == ""  # nothing finite → nothing drawn


# --- ascii_cdf -------------------------------------------------------------


def test_ascii_cdf_structure(rng):
    plot = ascii_cdf(
        {"a": rng.lognormal(0, 1, 500), "b": rng.lognormal(1, 1, 500)},
        width=40,
        height=8,
    )
    lines = plot.splitlines()
    assert len(lines) == 8 + 3  # grid + axis + x-range + legend
    assert "*=a" in lines[-1] and "o=b" in lines[-1]
    assert lines[0].startswith("1.00 |")


def test_ascii_cdf_monotone(rng):
    """Within a column range, the marker row must descend (CDF grows)."""
    values = rng.lognormal(0, 0.5, 2000)
    plot = ascii_cdf({"x": values}, width=30, height=10)
    rows = [line.split("|", 1)[1] for line in plot.splitlines()[:10]]
    first_marks = [next((r for r, row in enumerate(rows) if row[c] == "*"), None)
                   for c in range(30)]
    seen = [r for r in first_marks if r is not None]
    assert seen == sorted(seen, reverse=True)


def test_ascii_cdf_empty():
    assert ascii_cdf({}) == "(no data)"
    assert ascii_cdf({"a": np.array([np.nan])}) == "(no data)"


def test_ascii_cdf_linear_axis(rng):
    plot = ascii_cdf({"a": rng.normal(10, 1, 200)}, x_log=False, x_label="ms")
    assert "→" in plot and "ms" in plot


# --- LEO ----------------------------------------------------------------------


def test_leo_slant_range_bounds():
    shell = LeoShell()
    zenith = shell.slant_range_m(90.0)
    horizon = shell.slant_range_m(shell.min_elevation_deg)
    assert zenith == pytest.approx(shell.altitude_m, rel=1e-6)
    assert horizon > zenith
    with pytest.raises(ValueError):
        shell.slant_range_m(-1.0)


def test_leo_rtt_floor_milliseconds():
    shell = LeoShell()
    assert 0.005 < shell.min_rtt_s() < 0.010   # ~7.3 ms for 4×550 km
    assert shell.min_rtt_s() < shell.max_rtt_s() < 0.03


def test_leo_samples_match_starlink_profile(rng):
    """Physics-based samples should straddle the measured-profile median
    the built-in 'starlink' ERRANT profile uses (Michel et al.)."""
    shell = LeoShell()
    samples = shell.sample_rtt_s(rng, 4000) * 1000.0
    profile = BUILTIN_PROFILES["starlink"]
    assert np.median(samples) == pytest.approx(profile.rtt_median_ms, rel=0.5)
    assert samples.min() > 10.0


def test_geo_vs_leo_ratio():
    """The paper's 550 ms story is a GEO artifact: the propagation floor
    sits ~50–80× above a 550 km shell."""
    ratio = SatelliteGeometry().propagation_rtt_s(COUNTRIES["Spain"]) / LeoShell().min_rtt_s()
    assert 40.0 < ratio < 100.0


def test_isl_shell_cheaper():
    bent = LeoShell(bent_pipe=True)
    isl = LeoShell(bent_pipe=False)
    assert isl.min_rtt_s() == pytest.approx(bent.min_rtt_s() / 2)
