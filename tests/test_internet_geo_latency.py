"""Tests for geography and the terrestrial latency model."""

import numpy as np
import pytest

from repro.internet.geo import (
    COUNTRIES,
    GROUND_STATION,
    SERVER_SITES,
    geodesic_km,
)
from repro.internet.latency import LatencyModel
from repro.internet.topology import InternetModel
from repro.satcom.network import SatComPacketNetwork
from repro.simnet.engine import Simulator


def test_geodesic_known_distances():
    assert geodesic_km(COUNTRIES["UK"], COUNTRIES["Spain"]) == pytest.approx(1265, rel=0.05)
    assert geodesic_km(GROUND_STATION, SERVER_SITES["Milan-IX"]) == pytest.approx(520, rel=0.15)
    assert geodesic_km(COUNTRIES["UK"], COUNTRIES["UK"]) == 0.0


def test_geodesic_symmetric():
    a, b = COUNTRIES["Congo"], COUNTRIES["Ireland"]
    assert geodesic_km(a, b) == pytest.approx(geodesic_km(b, a))


def test_continent_partitions():
    europe = {name for name, loc in COUNTRIES.items() if loc.continent == "Europe"}
    africa = {name for name, loc in COUNTRIES.items() if loc.continent == "Africa"}
    assert "Spain" in europe and "Congo" in africa
    assert not europe & africa
    assert len(europe) + len(africa) == len(COUNTRIES)


def test_footprint_spans_ireland_to_south_africa():
    assert "Ireland" in COUNTRIES and "South Africa" in COUNTRIES
    assert len(COUNTRIES) > 20


def test_latency_anchors_match_figure9_bumps():
    """Milan ≈12 ms (peered CDNs), US-East ≈95, US-West ≈180,
    Kinshasa in the 300–400 ms African tail."""
    model = LatencyModel()

    def rtt(site):
        return model.base_rtt_ms(GROUND_STATION, SERVER_SITES[site])

    assert rtt("Milan-IX") == pytest.approx(12.0, abs=2.0)
    assert 14.0 <= rtt("Frankfurt") <= 20.0
    assert 85.0 <= rtt("US-East") <= 110.0
    assert 160.0 <= rtt("US-West") <= 200.0
    assert 300.0 <= rtt("Kinshasa") <= 400.0
    assert 100.0 <= rtt("Lagos") <= 135.0
    assert 220.0 <= rtt("Beijing") <= 270.0


def test_latency_sampling_jitter(rng):
    model = LatencyModel()
    samples = model.sample_rtt_ms(GROUND_STATION, SERVER_SITES["Milan-IX"], rng, 4000)
    base = model.base_rtt_ms(GROUND_STATION, SERVER_SITES["Milan-IX"])
    assert np.median(samples) == pytest.approx(base, rel=0.05)
    assert samples.std() > 0
    assert np.all(samples > 0)


def test_one_way_is_half_rtt():
    """The packet simulator's server links carry half the base RTT."""
    network = SatComPacketNetwork(
        Simulator(), InternetModel(), rng=np.random.default_rng(0), hour_utc=12.0
    )
    server = network.add_server("h.example", "Frankfurt", app_factory=lambda ep: None)
    model = LatencyModel()
    site = SERVER_SITES["Frankfurt"]
    assert server.link_to_gs.prop_delay_s * 1000.0 == pytest.approx(
        model.base_rtt_ms(GROUND_STATION, site) / 2
    )


def test_stretch_factor_symmetric_lookup():
    model = LatencyModel()
    assert model.stretch_factor(GROUND_STATION, SERVER_SITES["Lagos"]) == model.stretch_factor(
        SERVER_SITES["Lagos"], GROUND_STATION
    )


def test_unknown_continent_pair_gets_default():
    model = LatencyModel()
    from repro.internet.geo import Location

    exotic = Location("exotic", 0.0, 0.0, "Oceania")
    assert model.stretch_factor(GROUND_STATION, exotic) == pytest.approx(1.6)
