"""The distribution library: spec round-trips, statistical fidelity,
and the bit-identity contract the workload migration rests on."""

import hashlib

import numpy as np
import pytest

from repro.analysis.dataset import _ARRAY_FIELDS
from repro.traffic.distributions import (
    DAY_FACTOR_BINGE,
    DistributionError,
    EmpiricalCDF,
    LogNormal,
    Mixture,
    Pareto,
    Weibull,
    choice_cdf,
    choice_from_cdf,
    parse_spec,
    unit_lognormal,
)
from repro.internet.geo import COUNTRIES
from repro.traffic.profiles import country_profile
from repro.traffic.services import SERVICES
from repro.traffic.workload import WorkloadConfig, WorkloadGenerator

#: SHA-256 over the seed schema's 19 columns of the (60 customers,
#: 2 days, seed 5) capture, recorded BEFORE the distribution migration.
#: This is the tentpole's bit-identity anchor: if any migrated draw
#: changes RNG stream consumption or float expression grouping, this
#: moves.
GOLDEN_CAPTURE_SHA256 = (
    "0fe71852192f1233e0743b5ee367ba4c4fafa1407d85a12af867c79b7bef1f93"
)


EXAMPLES = [
    LogNormal(12.4, 1.8),
    LogNormal(1.0, 0.0),
    Pareto(1500.0, 1.2),
    Weibull(900.0, 0.8),
    EmpiricalCDF((1.0, 5.0, 20.0), (0.25, 0.75, 1.0)),
    Mixture((LogNormal(8.0, 0.5), LogNormal(1.0, 0.5)), (0.035, 0.965)),
    Mixture(
        (Pareto(100.0, 1.5), Weibull(40.0, 2.0), LogNormal(3.0, 1.0)),
        (0.2, 0.3, 0.5),
    ),
]


@pytest.mark.parametrize("dist", EXAMPLES, ids=lambda d: type(d).__name__)
def test_spec_round_trip(dist):
    """parse_spec inverts spec() exactly, and the string is canonical."""
    text = dist.spec()
    parsed = parse_spec(text)
    assert parsed == dist
    assert parsed.spec() == text


@pytest.mark.parametrize("dist", EXAMPLES, ids=lambda d: type(d).__name__)
def test_sample_and_params(dist):
    rng = np.random.default_rng(7)
    draws = dist.sample(rng, 1000)
    assert draws.shape == (1000,)
    assert np.all(draws > 0)
    payload = dist.params()
    assert payload["kind"] in ("lognormal", "pareto", "weibull", "empirical", "mixture")


def test_spec_parsing_tolerates_whitespace():
    assert parse_spec(" lognormal( 12.4 , 1.8 ) ") == LogNormal(12.4, 1.8)


@pytest.mark.parametrize(
    "bad",
    [
        "gaussian(0,1)",
        "lognormal(1.0)",
        "lognormal(-1.0,0.5)",
        "pareto(1.0,0)",
        "weibull(0,1)",
        "mixture(0.5*lognormal(1,1))",
        "mixture(0.5*lognormal(1,1),0.6*lognormal(2,1))",
        "empirical(1.0:0.5,2.0:0.9)",
        "empirical(1.0:0.9,2.0:0.5)",
        "lognormal(1.0,0.5",
        "not a spec",
        "empirical(1.0;0.5)",
    ],
)
def test_bad_specs_raise(bad):
    with pytest.raises(DistributionError):
        parse_spec(bad)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_empirical_cdf_ks(seed):
    """1M draws stay KS-close to the tabulated CDF for every seed.

    For a discrete distribution the empirical CDF at each support point
    converges at the usual sqrt(n) rate; 1e6 draws put the max
    deviation well under 0.005.
    """
    dist = EmpiricalCDF(
        values=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
        cdf=(0.1, 0.3, 0.55, 0.8, 0.95, 1.0),
    )
    rng = np.random.default_rng(seed)
    draws = dist.sample(rng, 1_000_000)
    points = np.asarray(dist.values, dtype=np.float64)
    empirical = np.array([(draws <= p).mean() for p in points])
    analytic = dist.cdf_at(points)
    assert np.abs(empirical - analytic).max() < 0.005


def test_empirical_cdf_at_edges():
    dist = EmpiricalCDF((1.0, 2.0), (0.4, 1.0))
    x = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
    np.testing.assert_allclose(dist.cdf_at(x), [0.0, 0.4, 0.4, 1.0, 1.0])


def test_mixture_common_sigma_matches_legacy_binge_draws():
    """The Mixture fast path is bitwise-equal to the pre-refactor binge
    expression, including RNG stream order (uniform first, base after)."""
    n = 50_000
    binge_prob = np.full(n, 0.035)
    binge_prob[: n // 2] = 0.12  # community-AP style override

    legacy_rng = np.random.default_rng(1234)
    binge = legacy_rng.random(n) < binge_prob
    legacy = legacy_rng.lognormal(0.0, 0.5, n) * np.where(binge, 8.0, 1.0)

    new_rng = np.random.default_rng(1234)
    new = DAY_FACTOR_BINGE.sample(new_rng, n, first_weight=binge_prob)

    assert np.array_equal(legacy, new)
    # and the streams are left in the same state
    assert legacy_rng.random() == new_rng.random()


#: Every choice table the generator builds once instead of per call:
#: each service's protocol mix and each country's local-hour weights.
CHOICE_TABLES = {
    **{f"protocol-{name}": svc.protocol_weights for name, svc in SERVICES.items()},
    **{f"hours-{name}": country_profile(name).hourly_weights_local for name in COUNTRIES},
}


@pytest.mark.parametrize("table", sorted(CHOICE_TABLES))
def test_choice_table_draws_equal_generator_choice(table):
    """The generator draws hours and protocols by searching prebuilt
    tables. Every capture digest rests on that being, element for
    element and variate for variate, ``Generator.choice(k, p=p)``; a
    numpy release that changes ``choice`` fails here, by table name."""
    p = CHOICE_TABLES[table]
    cdf = choice_cdf(p)
    for n in (0, 1, 7, 5000):
        ours, numpy_rng = np.random.default_rng(n), np.random.default_rng(n)
        drawn = choice_from_cdf(ours, cdf, n)
        expected = numpy_rng.choice(len(p), size=n, p=p)
        assert drawn.dtype == expected.dtype
        np.testing.assert_array_equal(drawn, expected)
        assert ours.bit_generator.state == numpy_rng.bit_generator.state


def test_unit_lognormal_is_bitwise_identity():
    """1.0 * x is a bitwise identity, so unit-median noise draws equal
    the bare rng.lognormal the call sites used to inline."""
    rng_a = np.random.default_rng(9)
    rng_b = np.random.default_rng(9)
    assert np.array_equal(
        unit_lognormal(0.3).sample(rng_a, 10_000),
        rng_b.lognormal(0.0, 0.3, 10_000),
    )


def test_heterogeneous_mixture_selects_components():
    mix = Mixture((Pareto(100.0, 1.5), LogNormal(1.0, 0.1)), (0.5, 0.5))
    draws = mix.sample(np.random.default_rng(3), 20_000)
    # Pareto component's support starts at 100; LogNormal(1, 0.1) stays
    # near 1 — both modes must be present at roughly their weights.
    frac_heavy = (draws >= 100.0).mean()
    assert 0.45 < frac_heavy < 0.55


def test_mixture_first_weight_needs_two_components():
    mix = Mixture(
        (LogNormal(1.0, 0.5), LogNormal(2.0, 0.5), LogNormal(3.0, 0.5)),
        (0.2, 0.3, 0.5),
    )
    with pytest.raises(DistributionError):
        mix.sample(np.random.default_rng(0), 10, first_weight=np.full(10, 0.5))


def test_capture_bit_identical_to_pre_migration_golden():
    """The migrated generator reproduces the pre-refactor capture
    byte-for-byte on the seed schema's 19 columns."""
    frame = WorkloadGenerator(
        WorkloadConfig(n_customers=60, days=2, seed=5)
    ).generate()
    digest = hashlib.sha256()
    for name in _ARRAY_FIELDS[:19]:
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(getattr(frame, name)).tobytes())
    assert digest.hexdigest() == GOLDEN_CAPTURE_SHA256
