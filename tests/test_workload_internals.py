"""White-box tests for workload-generator internals."""

import numpy as np
import pytest

from repro.flowmeter.records import L7Protocol, L7_ORDER
from repro.internet.resolvers import RESOLVERS
from repro.traffic.services import SERVICES
from repro.traffic.workload import WorkloadConfig, WorkloadGenerator


@pytest.fixture(scope="module")
def generator():
    return WorkloadGenerator(WorkloadConfig(n_customers=120, days=2, seed=6))


def test_domain_pools_cover_every_service(generator):
    for name in SERVICES:
        pool = generator._service_domains[name]
        assert len(pool) >= 1
        for idx in pool:
            assert 0 <= idx < len(generator.domains_pool)


def test_site_precomputation_complete(generator):
    n_services = len(SERVICES)
    by_resolver = generator._site_by_resolver
    assert by_resolver.shape == (n_services, len(generator.resolvers_pool))
    assert np.all(by_resolver >= 0)
    by_country = generator._site_by_country
    assert by_country.shape == (n_services, len(generator.countries_pool))
    assert np.all(by_country >= 0)


def _service_column(generator, name, n):
    return np.full(n, generator.services_pool.index(name))


def test_select_sites_anycast_ignores_resolver(generator):
    flow_cust = np.arange(min(50, len(generator.population)))
    svc = _service_column(generator, "Netflix", len(flow_cust))  # ANYCAST policy
    congo = generator.countries_pool.index("Congo")
    sites = generator._select_sites(svc, congo, flow_cust, None)
    assert len(set(sites.tolist())) == 1  # one egress-nearest node for all


def test_select_sites_ecs_mixes_locations(generator):
    """Google-resolver customers split between country node and egress
    node; everyone else sticks with the resolver egress."""
    google_idx = generator.resolvers_pool.index("Google")
    google_custs = np.flatnonzero(generator.cust_resolver_idx == google_idx)
    congo_custs = np.flatnonzero(
        generator.cust_country_idx == generator.countries_pool.index("Congo")
    )
    custs = np.intersect1d(google_custs, congo_custs)
    if len(custs) == 0:
        pytest.skip("no Congolese Google customers in this draw")
    flows = np.repeat(custs, 40)
    svc = _service_column(generator, "Youtube", len(flows))
    coins = np.random.default_rng(0).random(len(flows))
    congo = generator.countries_pool.index("Congo")
    sites = generator._select_sites(svc, congo, flows, [coins])
    assert len(set(sites.tolist())) >= 2  # ECS coin flips both ways


def test_sample_duration_positive_and_plan_bounded(generator, rng):
    n = 500
    svc = _service_column(generator, "Netflix", n)
    flow_cust = rng.integers(0, len(generator.population), n)
    bytes_down = rng.lognormal(15, 1, n)
    util = np.full(n, 0.5)
    sat = np.full(n, 700.0)
    draws = generator._duration_draws(rng, n, video=True)
    durations = generator._durations(
        svc, flow_cust, bytes_down, util, sat, "Europe", draws
    )
    assert np.all(durations > 0)
    implied = bytes_down * 8 / durations / 1e6
    assert np.all(implied <= generator.cust_plan_down[flow_cust] * 1.01)


def test_activity_pairs_probability(generator):
    cust_ids = np.arange(100)
    always = generator._activity_pairs(cust_ids, np.ones(100))
    assert len(always[0]) == 100 * generator.config.days
    never = generator._activity_pairs(cust_ids, np.zeros(100))
    assert len(never[0]) == 0


def test_sample_hours_in_range(generator):
    from repro.internet.geo import COUNTRIES, utc_hour

    plan = generator._country_plans["Kenya"]
    local = plan.sample_local_hours(np.random.default_rng(0), 1000)
    utc = utc_hour(COUNTRIES["Kenya"], local)
    assert np.all((local >= 0) & (local < 24))
    assert np.all((utc >= 0) & (utc < 24))
    # Kenya is east of UTC: local runs ahead
    shift = (local - utc) % 24
    assert np.allclose(shift, shift[0])
    assert 2.0 < shift[0] < 3.0


def test_dns_chunk_resolver_mix(generator):
    frame = generator.generate()
    dns_idx = L7_ORDER.index(L7Protocol.DNS)
    dns_mask = frame.l7_idx == dns_idx
    # every customer's dominant DNS resolver matches its assignment
    sample_custs = np.unique(frame.customer_id[dns_mask])[:25]
    for customer in sample_custs:
        rows = dns_mask & (frame.customer_id == customer)
        resolvers, counts = np.unique(frame.resolver_idx[rows], return_counts=True)
        dominant = resolvers[np.argmax(counts)]
        assigned = generator.cust_resolver_idx[customer - 1]
        assert dominant == assigned


def test_resolver_response_times_match_catalog(generator):
    frame = generator.generate()
    for name in ("Operator-EU", "Baidu"):
        r_idx = generator.resolvers_pool.index(name)
        mask = frame.resolver_idx == r_idx
        if mask.sum() < 30:
            continue
        measured = np.median(frame.dns_response_ms[mask])
        expected = np.median(
            RESOLVERS[name].sample_response_ms(
                generator.internet.latency, np.random.default_rng(0), 4000
            )
        )
        assert measured == pytest.approx(expected, rel=0.25), name
