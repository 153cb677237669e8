"""Tests for the service catalog and country profiles."""

import numpy as np
import pytest

from repro.analysis.classify import ServiceClassifier
from repro.internet.geo import COUNTRIES, utc_hour
from repro.traffic.profiles import (
    CUSTOMER_SHARE_PCT,
    FIG6_ADOPTION_PCT,
    TOP_COUNTRIES,
    country_profile,
)
from repro.traffic.services import SERVICES, ServiceCategory
from repro.traffic.workload import WorkloadConfig, WorkloadGenerator


def test_customer_shares_sum_to_100():
    assert sum(CUSTOMER_SHARE_PCT.values()) == pytest.approx(100.0)
    assert set(CUSTOMER_SHARE_PCT) == set(COUNTRIES)


def test_fig6_matrix_complete():
    for service, row in FIG6_ADOPTION_PCT.items():
        assert service in SERVICES
        assert set(row) == set(TOP_COUNTRIES)
        assert all(0 <= v <= 100 for v in row.values())


def test_every_service_has_adoption_everywhere():
    for name in COUNTRIES:
        profile = country_profile(name)
        assert set(profile.adoption_pct) == set(SERVICES)
        assert all(0 <= v <= 100 for v in profile.adoption_pct.values())


def test_protocol_mixes_normalizable(rng):
    for svc in SERVICES.values():
        weights = [w for _, w in svc.protocol_mix]
        assert all(w > 0 for w in weights)
        draws = svc.sample_protocol(rng, 50)
        assert len(draws) == 50


def test_domains_sampled_match_templates(rng):
    for svc in SERVICES.values():
        for _ in range(5):
            domain = svc.sample_domain(rng)
            assert "{" not in domain and "}" not in domain
            assert "." in domain


def test_intentional_services_classifiable(rng):
    """Every Figure 6 service's generated domains must hit its own
    Table 3 rule — otherwise the heatmap can't reproduce."""
    classifier = ServiceClassifier()
    for svc in SERVICES.values():
        if not svc.intentional:
            continue
        for _ in range(10):
            domain = svc.sample_domain(rng)
            assert classifier.service_of(domain) == svc.name, (svc.name, domain)


def test_size_models_positive(rng):
    for svc in SERVICES.values():
        down = svc.size.down.sample(rng, 100)
        up = down * svc.size.up_ratio.sample(rng, 100)
        assert np.all(down > 0)
        assert np.all(up >= 0)


def _whatsapp_flows_per_customer_day(flow_scale):
    """Mean Whatsapp flows per (customer, day) that has any, and the
    number of such customer-days, in a small generated capture."""
    frame = WorkloadGenerator(
        WorkloadConfig(n_customers=60, days=1, seed=3, flow_scale=flow_scale)
    ).generate()
    mask = frame.service_true_idx == frame.services.index("Whatsapp")
    customer_days = np.unique(frame.customer_id[mask].astype(np.int64) * 100 + frame.day[mask])
    return mask.sum() / max(len(customer_days), 1), len(customer_days)


def test_flow_count_scaling():
    small, _ = _whatsapp_flows_per_customer_day(0.5)
    large, _ = _whatsapp_flows_per_customer_day(5.0)
    assert large > 4 * small
    # the generator rounds each customer-day's count up to one flow
    _, customer_days = _whatsapp_flows_per_customer_day(0.0001)
    assert customer_days >= 1


def test_categories_cover_fig7():
    for category in (
        ServiceCategory.AUDIO, ServiceCategory.CHAT, ServiceCategory.SEARCH,
        ServiceCategory.SOCIAL, ServiceCategory.VIDEO, ServiceCategory.WORK,
    ):
        assert any(svc.category == category for svc in SERVICES.values()), category


def test_diurnal_weights_are_distributions():
    for profile in map(country_profile, COUNTRIES):
        weights = profile.hourly_weights_local
        assert len(weights) == 24
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(weights > 0)


def test_europe_evening_peak_africa_morning_activity():
    spain = country_profile("Spain").hourly_weights_local
    congo = country_profile("Congo").hourly_weights_local
    assert 18 <= int(np.argmax(spain)) <= 21
    assert 8 <= int(np.argmax(congo)) <= 11
    # Africa's nightly floor is higher (Figure 4)
    assert congo.min() / congo.max() > spain.min() / spain.max()


def test_utc_shift():
    kenya = country_profile("Kenya")
    local = kenya.hourly_weights_local
    # Kenya is ~UTC+2.5 by longitude: the generator's conversion puts
    # the middle of the local peak hour ~2h earlier in UTC
    peak_utc = utc_hour(kenya.location, int(np.argmax(local)) + 0.5)
    assert int(peak_utc) == (int(np.argmax(local)) - 2) % 24


def test_profiles_cached():
    assert country_profile("Spain") is country_profile("Spain")


def test_unknown_country_raises():
    with pytest.raises(KeyError):
        country_profile("Atlantis")
