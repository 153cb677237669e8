"""Tests for the beam map and the analytic satellite-RTT model.

The Figure 8 shape tests draw through ``sample_handshake_rtt_bulk``,
the sampler every capture runs (``DelaySource`` forwards to it).
"""

import numpy as np
import pytest

from repro.internet.geo import COUNTRIES, local_hour
from repro.satcom.beams import Beam, build_default_beam_map
from repro.satcom.delay_model import SatelliteRttModel
from repro.traffic.profiles import TOP_COUNTRIES


@pytest.fixture(scope="module")
def beam_map():
    return build_default_beam_map()


@pytest.fixture(scope="module")
def model():
    return SatelliteRttModel()


def _loads(model, country, hour_utc, n, beam=None):
    """Per-flow ``(utilization, pep_utilization)`` for ``n`` flows on one
    beam (the country's first by default) at one UTC hour."""
    if beam is None:
        beam = model.beam_map.beams_for(country)[0]
    hour_loc = local_hour(COUNTRIES[country], hour_utc)
    return (
        np.full(n, model.beam_map.utilization(beam, hour_loc)),
        np.full(n, model.beam_map.pep_utilization(beam, hour_loc)),
    )


def test_every_country_covered(beam_map):
    for country in COUNTRIES:
        assert len(beam_map.beams_for(country)) >= 1


def test_beam_assignment_round_robin(beam_map):
    beams = beam_map.beams_for("Nigeria")
    assigned = [beam_map.assign_beam("Nigeria", i).beam_id for i in range(len(beams) * 2)]
    assert assigned[: len(beams)] == [b.beam_id for b in beams]
    assert assigned[len(beams)] == beams[0].beam_id


def test_beam_validation():
    with pytest.raises(ValueError):
        Beam("x", "Spain", 1.0, peak_utilization=1.0, pep_load=0.5)
    with pytest.raises(ValueError):
        Beam("x", "Spain", 1.0, peak_utilization=0.5, pep_load=-0.1)


def test_utilization_diurnal_and_bounded(beam_map):
    beam = beam_map.beams_for("Congo")[0]
    values = [beam_map.utilization(beam, h) for h in range(24)]
    assert all(0.0 <= v < 1.0 for v in values)
    # African load peaks higher in the day than the nightly floor
    assert max(values) > 1.5 * min(values)


def test_pep_utilization_flatter_than_radio(beam_map):
    """PEP load stays high at night (Section 6.1's Congo anomaly)."""
    beam = beam_map.beams_for("Congo")[0]
    radio_night = beam_map.utilization(beam, 3.0)
    pep_night = beam_map.pep_utilization(beam, 3.0)
    assert pep_night > radio_night


def test_bulk_matches_scalar(beam_map):
    beam = beam_map.beams_for("Spain")[0]
    hours = np.array([3.0, 12.0, 19.0])
    bulk = beam_map.utilization_bulk(
        np.full(3, beam.peak_utilization), hours, "Europe"
    )
    scalar = [beam_map.utilization(beam, h) for h in hours]
    assert np.allclose(bulk, scalar)


def test_local_hour_conversion():
    assert local_hour(COUNTRIES["UK"], 12.0) == pytest.approx(12.0, abs=0.2)
    assert local_hour(COUNTRIES["Kenya"], 12.0) == pytest.approx(14.45, abs=0.3)


def test_floor_above_propagation(model):
    for country in TOP_COUNTRIES:
        floor = model.floor_rtt_s(country)
        assert floor > model.geometry.propagation_rtt_s(COUNTRIES[country])


def test_sampled_rtt_above_550ms_floor(model, rng):
    """Headline number: the total RTT is 'higher than 550 ms'."""
    for country in TOP_COUNTRIES:
        samples = model.sample_handshake_rtt_bulk(country, *_loads(model, country, 20.0, 2000), rng)
        assert samples.min() > 0.52
        assert np.median(samples) > 0.55


def test_spain_night_mostly_under_1s(model, rng):
    hour_utc = (3.0 - COUNTRIES["Spain"].lon_deg / 15.0) % 24
    samples = model.sample_handshake_rtt_bulk("Spain", *_loads(model, "Spain", hour_utc, 6000), rng)
    fraction = (samples < 1.0).mean()
    assert 0.70 <= fraction <= 0.92  # paper: 82 %


def test_congo_heavy_tail_even_at_night(model, rng):
    hour_utc = (3.0 - COUNTRIES["Congo"].lon_deg / 15.0) % 24
    beams = model.beam_map.beams_for("Congo")
    samples = np.concatenate(
        [
            model.sample_handshake_rtt_bulk(
                "Congo", *_loads(model, "Congo", hour_utc, 3000, beam=b), rng
            )
            for b in beams
        ]
    )
    assert (samples > 2.0).mean() > 0.08  # paper: ~20 %


def test_congo_worse_at_peak(model, rng):
    night_utc = (3.0 - COUNTRIES["Congo"].lon_deg / 15.0) % 24
    peak_utc = (19.0 - COUNTRIES["Congo"].lon_deg / 15.0) % 24
    night = np.median(
        model.sample_handshake_rtt_bulk("Congo", *_loads(model, "Congo", night_utc, 4000), rng)
    )
    peak = np.median(
        model.sample_handshake_rtt_bulk("Congo", *_loads(model, "Congo", peak_utc, 4000), rng)
    )
    assert peak > night


def test_ireland_tail_load_independent(model, rng):
    """Ireland's impairments are channel-driven: night ≈ peak."""
    night_utc = (3.0 - COUNTRIES["Ireland"].lon_deg / 15.0) % 24
    peak_utc = (19.0 - COUNTRIES["Ireland"].lon_deg / 15.0) % 24
    night = model.sample_handshake_rtt_bulk(
        "Ireland", *_loads(model, "Ireland", night_utc, 6000), rng
    )
    peak = model.sample_handshake_rtt_bulk(
        "Ireland", *_loads(model, "Ireland", peak_utc, 6000), rng
    )
    tail_night = (night > 1.3).mean()
    tail_peak = (peak > 1.3).mean()
    assert tail_night > 0.05
    assert abs(tail_night - tail_peak) < 0.1


def test_ireland_worse_than_uk(model, rng):
    samples = {
        c: model.sample_handshake_rtt_bulk(
            c, *_loads(model, c, (21.0 - COUNTRIES[c].lon_deg / 15.0) % 24, 6000), rng
        )
        for c in ("Ireland", "UK")
    }
    assert (samples["Ireland"] > 1.3).mean() > (samples["UK"] > 1.3).mean()


def test_median_beam_rtt_reports_congestion(model, rng):
    """Figure 8b's y-axis: the median handshake RTT of one beam."""

    def median_beam_rtt_s(beam, hour_utc, samples=400):
        loads = _loads(model, beam.country, hour_utc, samples, beam=beam)
        return float(np.median(model.sample_handshake_rtt_bulk(beam.country, *loads, rng)))

    congested = model.beam_map.beams_for("Congo")[0]
    light = model.beam_map.beams_for("Spain")[0]
    assert median_beam_rtt_s(congested, 18.0) > median_beam_rtt_s(light, 18.0)
