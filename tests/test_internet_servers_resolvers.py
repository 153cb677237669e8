"""Tests for CDN footprints/selection and the resolver ecosystem."""

import numpy as np
import pytest

from repro.internet.geo import COUNTRIES, GROUND_STATION, SERVER_SITES
from repro.internet.latency import LatencyModel
from repro.internet.resolvers import RESOLVERS, RESOLVER_SHARES, ResolverCatalog
from repro.internet.servers import FOOTPRINTS, SelectionPolicy, deployment
from repro.traffic.services import SERVICES


def test_all_service_footprints_exist():
    for svc in SERVICES.values():
        assert svc.footprint in FOOTPRINTS, svc.name


def test_footprint_sites_resolve():
    for footprint in FOOTPRINTS.values():
        for site in footprint.sites():
            assert site.name in SERVER_SITES


def test_dns_policy_picks_node_near_perceived_client():
    dep = deployment("test", "global-cdn", SelectionPolicy.DNS_RESOLVER_GEO)
    site_for_nigeria = dep.select_site(COUNTRIES["Nigeria"], GROUND_STATION)
    site_for_uk = dep.select_site(COUNTRIES["UK"], GROUND_STATION)
    assert site_for_nigeria.name == "Lagos"
    assert site_for_uk.name == "London"


def test_anycast_ignores_perceived_client():
    dep = deployment("test", "video-cdn", SelectionPolicy.ANYCAST)
    latency = LatencyModel()
    a = dep.select_site(COUNTRIES["Nigeria"], GROUND_STATION, latency)
    b = dep.select_site(COUNTRIES["UK"], GROUND_STATION, latency)
    assert a.name == b.name == "Milan-IX"  # nearest to the Italian egress


def test_origin_policy_single_site():
    dep = deployment("test", "us-cloud-east", SelectionPolicy.ORIGIN)
    assert dep.select_site(COUNTRIES["Congo"], GROUND_STATION).name == "US-East"


def test_apple_footprint_has_no_african_nodes():
    """Key to Table 2: Apple's CDN serves Africa from Europe/Asia."""
    sites = {s.continent for s in FOOTPRINTS["apple-cdn"].sites()}
    assert "Africa" not in sites


# --- resolvers -----------------------------------------------------------


def test_resolver_medians_match_figure10(rng):
    """Median response times within ±20 % of the paper's column."""
    targets = {
        "Operator-EU": 3.98,
        "Google": 21.98,
        "CloudFlare": 19.97,
        "Nigerian": 119.98,
        "Open DNS": 17.99,
        "Level3": 23.99,
        "Baidu": 355.97,
        "114DNS": 109.98,
        "Other": 29.97,
    }
    latency = LatencyModel()
    for name, target in targets.items():
        samples = RESOLVERS[name].sample_response_ms(latency, rng, 6000)
        assert np.median(samples) == pytest.approx(target, rel=0.20), name


def test_cache_misses_add_upstream_latency(rng):
    latency = LatencyModel()
    resolver = RESOLVERS["Google"]
    samples = resolver.sample_response_ms(latency, rng, 8000)
    # the miss tail should push p99 well above the median
    assert np.quantile(samples, 0.99) > 3 * np.median(samples)


def test_ecs_perceived_location(rng):
    google = RESOLVERS["Google"]
    outcomes = {
        google.perceived_client(COUNTRIES["Nigeria"], rng).name for _ in range(200)
    }
    assert "Nigeria" in outcomes  # ECS sometimes reveals the country
    assert google.egress.name in outcomes  # and sometimes not

    cloudflare = RESOLVERS["CloudFlare"]
    outcomes = {
        cloudflare.perceived_client(COUNTRIES["Nigeria"], rng).name for _ in range(50)
    }
    assert outcomes == {cloudflare.egress.name}  # no ECS → always egress


def test_catalog_mixes_normalized():
    catalog = ResolverCatalog()
    for country in list(RESOLVER_SHARES) + ["Germany", "Kenya"]:
        continent = COUNTRIES[country].continent
        names, weights = catalog.names_and_weights(country, continent)
        assert len(names) == len(weights)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(weights >= 0)


def test_catalog_choice_follows_shares(rng):
    catalog = ResolverCatalog()
    draws = [catalog.choose("Congo", "Africa", rng).name for _ in range(3000)]
    google_share = draws.count("Google") / len(draws)
    assert google_share == pytest.approx(0.8568, abs=0.04)


def test_forced_catalog():
    catalog = ResolverCatalog.forced("Operator-EU")
    for country in ("Congo", "UK", "Kenya"):
        mix = catalog.mix_for(country, COUNTRIES[country].continent)
        assert mix == {"Operator-EU": 100.0}
    with pytest.raises(KeyError):
        ResolverCatalog.forced("NoSuchResolver")


def test_by_address_reverse_lookup():
    catalog = ResolverCatalog()
    google = RESOLVERS["Google"]
    assert catalog.by_address(google.address).name == "Google"
    assert catalog.by_address(1) is None
