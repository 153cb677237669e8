"""Population synthesis.

Draws a subscriber base matching the paper's aggregates: the country
mix of Figure 2, the subscriber-type mix behind Figures 5 and 7 (idle
CPEs in Europe, community WiFi APs in Africa), continent-typical plan
adoption (Section 6.5), per-customer resolver preference (Figure 10),
and per-customer service adoption (Figure 6).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.internet.geo import COUNTRIES
from repro.internet.resolvers import ResolverCatalog
from repro.satcom.beams import BeamMap, build_default_beam_map
from repro.satcom.plans import PLAN_MIX_BY_CONTINENT, PLANS
from repro.traffic.profiles import CountryProfile, country_profile
from repro.traffic.services import SERVICES


class SubscriberType(enum.IntEnum):
    """Who sits behind a CPE (Sections 4–5)."""

    IDLE = 0
    """Equipment left connected but unused (second homes in Europe)."""
    HOUSEHOLD = 1
    """A family or small office."""
    COMMUNITY = 2
    """A community WiFi AP / internet café multiplexing many users."""


#: Daily-usage multiplier for idle CPEs: a phone or two stays attached
#: to the WiFi of a mostly-unused subscription, so popular apps still
#: appear (the paper's Figure 6 rates hold across the whole customer
#: base even though >50 % of European customers are under the 250-flow
#: activity knee).
IDLE_USE_FACTOR = 0.85


@dataclass
class Subscriber:
    """One synthetic customer."""

    customer_id: int
    country: str
    subscriber_type: SubscriberType
    plan_name: str
    beam_id: str
    beam_peak_utilization: float
    beam_pep_load: float
    resolver_name: str
    volume_multiplier: float
    flow_multiplier: float
    daily_use_prob: Dict[str, float]

    @property
    def plan_down_mbps(self) -> float:
        return PLANS[self.plan_name].down_mbps


@dataclass
class Population:
    """The synthesized subscriber base."""

    subscribers: List[Subscriber]

    def __len__(self) -> int:
        return len(self.subscribers)

    def by_country(self) -> Dict[str, List[Subscriber]]:
        out: Dict[str, List[Subscriber]] = {}
        for sub in self.subscribers:
            out.setdefault(sub.country, []).append(sub)
        return out

    def count_by_type(self) -> Dict[SubscriberType, int]:
        counts = {t: 0 for t in SubscriberType}
        for sub in self.subscribers:
            counts[sub.subscriber_type] += 1
        return counts


def _choose_plan(
    continent: str,
    rng: np.random.Generator,
    plan_mix: Optional[Dict[str, Dict[str, float]]] = None,
) -> str:
    mix = (plan_mix or PLAN_MIX_BY_CONTINENT)[continent]
    names = list(mix)
    weights = np.array([mix[n] for n in names])
    return names[rng.choice(len(names), p=weights / weights.sum())]


def _daily_use_probs(
    profile: CountryProfile,
    subscriber_type: SubscriberType,
    rng: np.random.Generator,
) -> Dict[str, float]:
    """Per-service daily usage probability for one subscriber.

    Calibrated so the *population-level* daily usage matches the
    Figure 6 matrix: community APs (many users) touch adopted services
    almost daily, idle CPEs rarely, and the household rate is solved
    from the country's type mix so the expectation lands on the
    published percentage. Each subscriber still *adopts* a service
    first (Bernoulli) so per-customer behaviour is consistent across
    days.
    """
    idle_share, house_share, comm_share = profile.type_mix
    probs: Dict[str, float] = {}
    for name in SERVICES:
        p = profile.adoption_pct[name] / 100.0
        p_comm = min(0.98, 1.8 * p)
        p_idle = IDLE_USE_FACTOR * p
        p_house = (p - comm_share * p_comm - idle_share * p_idle) / max(house_share, 1e-9)
        p_house = float(np.clip(p_house, 0.02 * p, 0.95))
        if subscriber_type == SubscriberType.COMMUNITY:
            p_type = p_comm
        elif subscriber_type == SubscriberType.HOUSEHOLD:
            p_type = p_house
        else:
            p_type = p_idle
        p_adopt = min(1.0, 1.4 * p_type)
        if p_adopt > 0 and rng.random() < p_adopt:
            probs[name] = min(1.0, p_type / p_adopt)
    return probs


def synthesize_population(
    n_customers: int,
    rng: np.random.Generator,
    countries: Optional[Sequence[str]] = None,
    beam_map: Optional[BeamMap] = None,
    resolver_catalog: Optional[ResolverCatalog] = None,
    plan_mix: Optional[Dict[str, Dict[str, float]]] = None,
) -> Population:
    """Draw ``n_customers`` subscribers.

    ``countries`` restricts the population (weights renormalized); by
    default all covered countries appear with their Figure 2 shares.
    ``plan_mix`` overrides the per-continent plan adoption (keys are
    continents, values plan→weight tables); with the default mix the
    draw sequence is bit-identical to the pre-scenario generator.
    """
    if n_customers <= 0:
        raise ValueError("n_customers must be positive")
    beam_map = beam_map or build_default_beam_map()
    catalog = resolver_catalog or ResolverCatalog()

    names = list(countries) if countries else list(COUNTRIES)
    shares = np.array([country_profile(name).customer_share for name in names])
    shares /= shares.sum()
    country_draw = rng.choice(len(names), size=n_customers, p=shares)

    per_country_index: Dict[str, int] = {}
    subscribers: List[Subscriber] = []
    for customer_id, idx in enumerate(country_draw, start=1):
        country = names[int(idx)]
        profile = country_profile(country)
        type_weights = np.array(profile.type_mix)
        sub_type = SubscriberType(
            int(rng.choice(3, p=type_weights / type_weights.sum()))
        )
        index = per_country_index.get(country, 0)
        per_country_index[country] = index + 1
        beam = beam_map.assign_beam(country, index)
        resolver_names, resolver_weights = catalog.names_and_weights(
            country, profile.continent
        )
        resolver = resolver_names[int(rng.choice(len(resolver_names), p=resolver_weights))]

        if sub_type == SubscriberType.COMMUNITY:
            volume_mult = float(3.5 * rng.lognormal(0.0, 0.70))
            flow_mult = 1.2 * volume_mult
        elif sub_type == SubscriberType.HOUSEHOLD:
            volume_mult = float(rng.lognormal(0.0, 0.90))
            flow_mult = max(0.3, volume_mult**0.5)
        else:
            volume_mult = 0.02
            flow_mult = 0.18

        subscribers.append(
            Subscriber(
                customer_id=customer_id,
                country=country,
                subscriber_type=sub_type,
                plan_name=_choose_plan(profile.continent, rng, plan_mix),
                beam_id=beam.beam_id,
                beam_peak_utilization=beam.peak_utilization,
                beam_pep_load=beam.pep_load,
                resolver_name=resolver,
                volume_multiplier=volume_mult,
                flow_multiplier=flow_mult,
                daily_use_prob=_daily_use_probs(profile, sub_type, rng),
            )
        )
    return Population(subscribers=subscribers)
