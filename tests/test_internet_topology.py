"""Tests for the assembled Internet model."""

import numpy as np
import pytest

from repro.internet.geo import COUNTRIES, SERVER_SITES
from repro.internet.resolvers import RESOLVERS
from repro.internet.servers import SelectionPolicy, deployment
from repro.internet.topology import InternetModel


@pytest.fixture()
def model():
    m = InternetModel()
    m.register_deployment(deployment("svc-dns", "global-cdn", SelectionPolicy.DNS_RESOLVER_GEO))
    m.register_deployment(deployment("svc-anycast", "video-cdn", SelectionPolicy.ANYCAST))
    return m


def test_server_ip_stable_and_site_scoped(model):
    milan = SERVER_SITES["Milan-IX"]
    lagos = SERVER_SITES["Lagos"]
    ip1 = model.server_ip(milan, "a.example.com")
    ip2 = model.server_ip(milan, "a.example.com")
    assert ip1 == ip2
    assert model.site_of_ip(ip1) == "Milan-IX"
    assert model.site_of_ip(model.server_ip(lagos, "a.example.com")) == "Lagos"


def test_site_of_unknown_ip(model):
    assert model.site_of_ip(0x01020304) is None


def test_select_server_resolver_geo(model, rng):
    nigerian = RESOLVERS["Nigerian"]
    result = model.select_server("svc-dns", COUNTRIES["Nigeria"], nigerian, rng)
    assert result.site.name == "Lagos"
    assert result.dns_response_ms > 50  # Lagos detour
    assert result.resolver is nigerian


def test_select_server_operator_keeps_traffic_in_europe(model, rng):
    operator = RESOLVERS["Operator-EU"]
    result = model.select_server("svc-dns", COUNTRIES["Nigeria"], operator, rng)
    assert SERVER_SITES[result.site.name].continent == "Europe"
    assert result.dns_response_ms < 30


def test_select_server_anycast_resolver_independent(model, rng):
    sites = {
        model.select_server("svc-anycast", COUNTRIES["Congo"], RESOLVERS[name], rng).site.name
        for name in ("Operator-EU", "Baidu", "Nigerian")
    }
    assert sites == {"Milan-IX"}


def test_unknown_service_raises(model, rng):
    with pytest.raises(KeyError):
        model.select_server("nope", COUNTRIES["UK"], RESOLVERS["Google"], rng)


def test_ground_rtt_sampling(model, rng):
    site = SERVER_SITES["US-East"]
    samples = model.latency.sample_rtt_ms(model.ground_station, site, rng, 2000)
    assert np.median(samples) == pytest.approx(model.base_ground_rtt_ms(site), rel=0.05)


def test_country_and_site_lookups(model):
    assert model.country("Spain").continent == "Europe"
    assert model.site("Beijing").continent == "Asia"
    with pytest.raises(KeyError):
        model.country("Atlantis")
