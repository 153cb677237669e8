"""Flow-level workload generation.

Produces a :class:`~repro.analysis.dataset.FlowFrame` of hundreds of
thousands of flows by composing the population (who), the service
catalog (what), the diurnal profiles (when), the internet model (where
the server is and what the DNS costs), and the SatCom delay/throughput
models (what performance the probe records).

Each (shard, window) is generated country by country. A country's
service flows come in two passes: the draw pass walks the (country,
service) chunks and makes every RNG call, in a fixed order, computing
only the few values a draw's size or distribution depends on; the
compute pass then does all draw-free elementwise work (timestamps,
sizes, sites, durations) once over the country's concatenated draws.
The per-customer columns are gathered once per window. DESIGN.md §7
states the contract.

The RTT/throughput columns are stamped with the *same* models the
packet-level simulator uses — DESIGN.md §2 explains why this preserves
the paper's observable shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.dataset import FlowFrame
from repro.constants import SECONDS_PER_DAY
from repro.internet.geo import COUNTRIES, SERVER_SITES, Location, utc_hour
from repro.internet.resolvers import RESOLVERS
from repro.internet.servers import SelectionPolicy, deployment
from repro.internet.topology import InternetModel
from repro.parallel import (
    ShardSpec,
    ShardWorkerPool,
    default_shard_count,
    plan_shards,
    resolve_workers,
)
from repro.satcom.beams import (
    BeamMap,
    diurnal_shape,
    pep_load_at,
    utilization_at,
)
from repro.satcom.delay_model import SatelliteRttModel
from repro.satcom.delaysource import DelaySource, StaticDelaySource
from repro.traffic.distributions import (
    DAY_FACTOR_BINGE,
    Distribution,
    LogNormal,
    Mixture,
    choice_cdf,
    choice_from_cdf,
    unit_lognormal,
)
from repro.traffic.profiles import country_profile
from repro.traffic.services import SERVICES, L7_ORDER, Service, ServiceCategory
from repro.traffic.sessions import VideoQoeConfig, VideoSessionModel
from repro.traffic.subscribers import (
    Population,
    SubscriberType,
    synthesize_population,
)
from repro.flowmeter.records import L7Protocol

_HTTPS_IDX = L7_ORDER.index(L7Protocol.HTTPS)
_DNS_IDX = L7_ORDER.index(L7Protocol.DNS)
_DOMAINS_PER_SERVICE = 24
_VIDEO_BITRATES_MBPS = np.array([2.5, 4.0, 8.0, 16.0])
# largest float32 below 24.0: hours sampled in [0, 24) as float64 can
# round up to exactly 24.0 when narrowed to float32
_HOUR_MAX_F4 = np.nextafter(np.float32(24.0), np.float32(0.0))


@dataclass
class TrafficModel:
    """Resolved traffic-model overrides threaded into the generator.

    The default instance reproduces the legacy hard-coded draws
    bit-for-bit: no per-service overrides, the binge day factor as a
    two-component :class:`Mixture`, and no video sessions. Scenarios
    build non-default instances from their digest-bearing ``traffic``
    section (:meth:`repro.scenario.Scenario.build_traffic_model`).
    """

    category_weights: Dict[ServiceCategory, float] = field(default_factory=dict)
    """Per-category flow-count multipliers (absent = 1.0, untouched)."""
    size_dists: Dict[str, Distribution] = field(default_factory=dict)
    """Per-service downlink flow-size overrides (bytes)."""
    flows_dists: Dict[str, Distribution] = field(default_factory=dict)
    """Per-service flows-per-active-day overrides (absolute counts)."""
    day_factor: Mixture = DAY_FACTOR_BINGE
    """Customer-day size multiplier; first component is the binge mode
    whose weight the per-subscriber-type binge probability overrides."""
    qoe: Optional[VideoQoeConfig] = None
    """Video session model (None = no sessions, zero extra draws)."""


@dataclass
class WorkloadConfig:
    """Knobs of the generator."""

    n_customers: int = 600
    days: int = 5
    seed: int = 7
    countries: Optional[Sequence[str]] = None
    flow_scale: float = 1.0
    """Uniformly scales per-customer flow counts (for quick runs)."""
    include_dns: bool = True
    dns_flows_per_day: float = 25.0
    """Mean DNS flows per household-day (scaled by flow multiplier)."""
    n_workers: Optional[int] = 1
    """Worker processes for generation: ``1`` serial, ``None``/``0``
    one per core. Never affects the generated flows, only wall-clock."""
    n_shards: Optional[int] = None
    """Customer shards (RNG streams). ``None`` derives the count from
    ``n_customers`` alone. Changing it changes the sampled flows, so it
    is part of the capture's cache identity — unlike ``n_workers``."""


#: dtype and fill of each column a chunk kind may leave constant
_COLUMN_FILLS: Dict[str, Tuple[type, float]] = {
    "service_true_idx": (np.int16, -1),
    "domain_idx": (np.int32, -1),
    "sat_rtt_ms": (np.float32, np.nan),
    "ground_rtt_ms": (np.float32, np.nan),
    "resolver_idx": (np.int16, -1),
    "dns_response_ms": (np.float32, np.nan),
    "site_idx": (np.int16, -1),
    "session_id": (np.int64, -1),
    "qoe_rebuffer": (np.float32, np.nan),
    "qoe_level": (np.float32, np.nan),
    "qoe_switches": (np.int16, -1),
}

#: The columns each per-country piece carries; the generator derives
#: the per-customer rest from ``flow_cust`` once per window.
_KIND_COLUMNS = (
    "flow_cust",
    "ts_start",
    "day",
    "hour_utc",
    "l7_idx",
    "bytes_up",
    "bytes_down",
    "duration_s",
    *_COLUMN_FILLS,
)


def _start_times(
    location: Location, flow_day: np.ndarray, hour_local: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(start timestamp, UTC hour) of flows starting at local hour
    ``hour_local`` of ``flow_day`` at ``location``."""
    hour_utc = utc_hour(location, hour_local)
    return flow_day * SECONDS_PER_DAY + hour_utc * 3600.0, hour_utc


def _filled(n: int, columns: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """``columns`` plus a constant fill for every column it leaves out."""
    for key, (dtype, fill) in _COLUMN_FILLS.items():
        if key not in columns:
            columns[key] = np.full(n, fill, dtype=dtype)
    return columns


class _Parts:
    """The draws of one country's service chunks, joined for the
    compute pass.

    ``add`` keeps a chunk's arrays (``None`` values are skipped, for
    draws only some chunks make); ``parts[key]`` concatenates one of
    them across the chunks, in draw order, and releases the chunks'
    copies: each key is taken once.
    """

    def __init__(self) -> None:
        self.rows = 0
        self.chunk_rows: List[int] = []
        self.chunks: Dict[str, list] = {}

    def add(self, rows: int, **values) -> None:
        self.rows += rows
        self.chunk_rows.append(rows)
        for key, value in values.items():
            if value is not None:
                self.chunks.setdefault(key, []).append(value)

    def __getitem__(self, key: str) -> np.ndarray:
        return np.concatenate(self.chunks.pop(key))

    def per_row(self, key: str, dtype=None) -> np.ndarray:
        """A per-chunk scalar repeated over the chunk's rows."""
        return np.repeat(np.array(self.chunks.pop(key), dtype=dtype), self.chunk_rows)


@dataclass(frozen=True, eq=False)
class _ServicePlan:
    """Everything the draw pass needs about one service, built once."""

    index: int
    service: Service
    flows: Optional[Distribution]
    """Scenario override of the flows-per-day draw (None = default)."""
    flows_noise: LogNormal
    weight: Optional[float]
    """Category flow-count multiplier (None = 1.0, untouched)."""
    size: Distribution
    up_ratio: LogNormal
    n_domains: int
    ecs: bool
    """Server selection draws an ECS coin (not anycast/origin)."""
    video: bool


@dataclass(frozen=True, eq=False)
class _CountryPlan:
    """Everything the draw pass needs about one country, built once."""

    name: str
    index: int
    """Position in the generator's country pool."""
    location: Location
    continent: str
    hour_cdf: np.ndarray
    flow_factor: Tuple[float, ...]
    """``intensity ** 0.4`` per service index."""
    size_factor: Tuple[float, ...]
    """``intensity ** 0.6`` per service index."""

    def sample_local_hours(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Local start hours in [0, 24): the diurnal hour plus a uniform
        offset inside it."""
        return choice_from_cdf(rng, self.hour_cdf, n) + rng.uniform(0.0, 1.0, n)


@dataclass(frozen=True, eq=False)
class _ShardCountry:
    """One country's customers in one shard, with their use rows."""

    plan: _CountryPlan
    ids: np.ndarray
    services: Tuple[Tuple[_ServicePlan, np.ndarray], ...]
    """(service, per-customer daily-use probability) for every service
    some customer here may use; the others draw nothing."""
    dns_mean: np.ndarray


class WorkloadGenerator:
    """Generates the synthetic capture the analysis pipeline consumes."""

    def __init__(
        self,
        config: Optional[WorkloadConfig] = None,
        internet: Optional[InternetModel] = None,
        rtt_model: Optional[SatelliteRttModel] = None,
        population: Optional[Population] = None,
        plan_mix: Optional[Dict[str, Dict[str, float]]] = None,
        delay_source: Optional[DelaySource] = None,
        traffic: Optional[TrafficModel] = None,
    ) -> None:
        self.config = config or WorkloadConfig()
        self.traffic = traffic or TrafficModel()
        self.rng = np.random.default_rng(self.config.seed)
        if delay_source is not None and rtt_model is not None:
            raise ValueError("pass delay_source or rtt_model, not both")
        if delay_source is None:
            if rtt_model is not None:
                # legacy entry point: a bare model is the static source
                delay_source = StaticDelaySource(rtt_model=rtt_model)
            else:
                # the baseline scenario owns the default model tree
                from repro.scenario import get_scenario

                delay_source = get_scenario("baseline-geo").build_delay_source()
        self.delay_source = delay_source
        self.rtt_model = delay_source.rtt_model
        self.beam_map: BeamMap = self.rtt_model.beam_map
        self.internet = internet or InternetModel()
        for svc in SERVICES.values():
            if svc.name not in self.internet.deployments:
                self.internet.register_deployment(
                    deployment(svc.name, svc.footprint, svc.policy)
                )
        self.population = population or synthesize_population(
            self.config.n_customers,
            self.rng,
            countries=self.config.countries,
            beam_map=self.beam_map,
            plan_mix=plan_mix,
        )
        self.delay_source.bind_customers(
            [s.country for s in self.population.subscribers]
        )
        self._build_pools()
        self._build_customer_arrays()
        self._precompute_sites()
        self._build_plans()

    # -- pools and lookups -------------------------------------------------

    def _build_pools(self) -> None:
        self.countries_pool = list(COUNTRIES)
        self.beams_pool = [beam.beam_id for beam in self.beam_map.beams]
        self.services_pool = list(SERVICES)
        self.sites_pool = list(SERVER_SITES)
        self.resolvers_pool = list(RESOLVERS)
        self.domains_pool: List[str] = []
        self._service_domains: Dict[str, np.ndarray] = {}
        seen: Dict[str, int] = {}
        for name, svc in SERVICES.items():
            indices = []
            for _ in range(_DOMAINS_PER_SERVICE):
                domain = svc.sample_domain(self.rng)
                if domain not in seen:
                    seen[domain] = len(self.domains_pool)
                    self.domains_pool.append(domain)
                indices.append(seen[domain])
            self._service_domains[name] = np.array(sorted(set(indices)), dtype=np.int32)
        # every service's domain pool laid end to end: a flow's domain
        # is _domain_table[_svc_domain_offset[service] + draw]
        domains = list(self._service_domains.values())
        self._domain_table = np.concatenate(domains)
        self._svc_domain_offset = np.cumsum([0] + [len(d) for d in domains[:-1]])
        self._site_base_rtt = np.array(
            [self.internet.base_ground_rtt_ms(SERVER_SITES[s]) for s in self.sites_pool],
            dtype=np.float64,
        )
        self._jitter_noise = unit_lognormal(self.internet.latency.jitter_sigma)
        self._svc_video = np.array(
            [svc.category == ServiceCategory.VIDEO for svc in SERVICES.values()]
        )
        self._video_service_idx = np.flatnonzero(self._svc_video)

    def _build_customer_arrays(self) -> None:
        subs = self.population.subscribers
        n = len(subs)
        beam_index = {beam_id: i for i, beam_id in enumerate(self.beams_pool)}
        resolver_index = {name: i for i, name in enumerate(self.resolvers_pool)}
        self.cust_country_idx = np.array(
            [self.countries_pool.index(s.country) for s in subs], dtype=np.int16
        )
        self.cust_type = np.array([int(s.subscriber_type) for s in subs], dtype=np.int8)
        self.cust_plan_down = np.array([s.plan_down_mbps for s in subs], dtype=np.float32)
        self.cust_beam_idx = np.array([beam_index[s.beam_id] for s in subs], dtype=np.int16)
        self.cust_beam_peak = np.array([s.beam_peak_utilization for s in subs], dtype=np.float64)
        self.cust_beam_pep = np.array([s.beam_pep_load for s in subs], dtype=np.float64)
        self.cust_resolver_idx = np.array(
            [resolver_index[s.resolver_name] for s in subs], dtype=np.int16
        )
        self.cust_volume_mult = np.array([s.volume_multiplier for s in subs], dtype=np.float64)
        self.cust_flow_mult = np.array([s.flow_multiplier for s in subs], dtype=np.float64)
        self.cust_size_scale = self.cust_volume_mult / np.maximum(self.cust_flow_mult, 1e-9)
        self.cust_plan_bps = self.cust_plan_down.astype(np.float64) * 1e6
        community = self.cust_type == int(SubscriberType.COMMUNITY)
        self.cust_community = community
        # per-subscriber-type weight of the binge mode of the day factor
        self.cust_binge_prob = np.where(community, 0.10, 0.035)
        # (service, customer) daily-use probabilities as one dense
        # matrix: the generator reads a row slice per chunk instead of
        # chasing per-subscriber dicts in the per-shard hot loop
        self.cust_use_prob = np.zeros((len(SERVICES), n), dtype=np.float64)
        for s_idx, name in enumerate(SERVICES):
            self.cust_use_prob[s_idx] = [
                s.daily_use_prob.get(name, 0.0) for s in subs
            ]
        self._country_customers: Dict[str, np.ndarray] = {}
        for country in set(s.country for s in subs):
            self._country_customers[country] = np.array(
                [i for i, s in enumerate(subs) if s.country == country], dtype=np.int64
            )

    def _precompute_sites(self) -> None:
        """Server-selection outcomes as site indices into the site pool:
        ``_site_by_resolver[service, resolver]`` (the resolver egress's
        choice) and ``_site_by_country[service, country]`` (the choice
        for a client located in its own country, via ECS)."""
        site_index = {name: i for i, name in enumerate(self.sites_pool)}
        gs = self.internet.ground_station
        latency = self.internet.latency
        shape = (len(SERVICES),)
        self._site_by_resolver = np.empty(shape + (len(self.resolvers_pool),), np.int16)
        self._site_by_country = np.empty(shape + (len(self.countries_pool),), np.int16)
        for s_idx, name in enumerate(SERVICES):
            dep = self.internet.deployment_for(name)
            for r_idx, r_name in enumerate(self.resolvers_pool):
                site = dep.select_site(RESOLVERS[r_name].egress, gs, latency)
                self._site_by_resolver[s_idx, r_idx] = site_index[site.name]
            for c_idx, country in enumerate(self.countries_pool):
                site = dep.select_site(COUNTRIES[country], gs, latency)
                self._site_by_country[s_idx, c_idx] = site_index[site.name]
        self._svc_ecs = np.array(
            [
                svc.policy not in (SelectionPolicy.ANYCAST, SelectionPolicy.ORIGIN)
                for svc in SERVICES.values()
            ]
        )
        self._resolver_is_ecs = np.array(
            [RESOLVERS[r].supports_ecs for r in self.resolvers_pool], dtype=bool
        )
        self._resolver_ecs_accuracy = np.array(
            [RESOLVERS[r].ecs_accuracy for r in self.resolvers_pool], dtype=np.float64
        )

    def _build_plans(self) -> None:
        """Per-service and per-country constants of the draw pass.

        Everything here used to be recomputed on every chunk: choice
        tables, distribution objects, intensity powers.
        """
        traffic = self.traffic
        self._service_plans: List[_ServicePlan] = []
        for s_idx, svc in enumerate(SERVICES.values()):
            weight = traffic.category_weights.get(svc.category)
            self._service_plans.append(
                _ServicePlan(
                    index=s_idx,
                    service=svc,
                    flows=traffic.flows_dists.get(svc.name),
                    flows_noise=svc.flows_noise,
                    weight=None if weight is None or weight == 1.0 else weight,
                    size=traffic.size_dists.get(svc.name, svc.size.down),
                    up_ratio=svc.size.up_ratio,
                    n_domains=len(self._service_domains[svc.name]),
                    ecs=bool(self._svc_ecs[s_idx]),
                    video=bool(self._svc_video[s_idx]),
                )
            )
        self._country_plans: Dict[str, _CountryPlan] = {}
        for c_idx, country in enumerate(self.countries_pool):
            profile = country_profile(country)
            intensity = [
                profile.category_intensity[svc.category] for svc in SERVICES.values()
            ]
            self._country_plans[country] = _CountryPlan(
                name=country,
                index=c_idx,
                location=profile.location,
                continent=profile.continent,
                hour_cdf=choice_cdf(profile.hourly_weights_local),
                flow_factor=tuple(x**0.4 for x in intensity),
                size_factor=tuple(x**0.6 for x in intensity),
            )
        self._session_model = (
            VideoSessionModel(traffic.qoe)
            if traffic.qoe is not None and len(self._video_service_idx)
            else None
        )
        self._shard_countries_cache: Dict[Tuple[int, int], List[_ShardCountry]] = {}

    def _shard_countries(self, shard: ShardSpec) -> List[_ShardCountry]:
        """The shard's countries in name order, built once per shard."""
        key = (shard.lo, shard.hi)
        cached = self._shard_countries_cache.get(key)
        if cached is not None:
            return cached
        out = []
        for country, cust_ids in sorted(self._country_customers.items()):
            ids = cust_ids[(cust_ids >= shard.lo) & (cust_ids < shard.hi)]
            if len(ids) == 0:
                continue
            use = self.cust_use_prob[:, ids]
            services = tuple(
                (self._service_plans[s_idx], use[s_idx])
                for s_idx in np.flatnonzero(use.any(axis=1))
            )
            dns_mean = (
                self.config.dns_flows_per_day
                * self.cust_flow_mult[ids]
                * self.config.flow_scale
            )
            out.append(
                _ShardCountry(self._country_plans[country], ids, services, dns_mean)
            )
        self._shard_countries_cache[key] = out
        return out

    # -- generation ---------------------------------------------------------

    def shard_plan(self) -> List[ShardSpec]:
        """The shards :meth:`generate` will execute (config-derived)."""
        n_shards = self.config.n_shards or default_shard_count(len(self.population))
        return plan_shards(len(self.population), n_shards)

    def generate(self) -> FlowFrame:
        """Produce the full synthetic capture.

        The population is split into contiguous customer-id shards,
        each generated from its own ``SeedSequence``-spawned RNG
        stream, then merged in shard order — so the result is
        bit-identical for any ``n_workers`` (see DESIGN.md §7).
        """
        shards = self.shard_plan()
        workers = min(resolve_workers(self.config.n_workers), len(shards))
        with ShardWorkerPool(self, workers) as pool:
            shard_frames = pool.generate_days(shards, 0, self.config.days)
        frames = [frame for frame in shard_frames if frame is not None]
        if not frames:
            raise RuntimeError("workload produced no flows")
        if len(frames) == 1:
            return frames[0]
        return FlowFrame.concat(frames)

    def generate_shard_days(
        self,
        shard: ShardSpec,
        day_lo: int,
        day_hi: int,
        rng: np.random.Generator,
    ) -> Optional[FlowFrame]:
        """Generate one shard's flows for days ``[day_lo, day_hi)``.

        The streaming producer (:mod:`repro.stream`) calls this once
        per (shard, window) with a window-specific RNG stream; the
        one-shot :meth:`generate` is the ``[0, days)`` special case on
        each shard's own stream, so its draws are byte-identical to the
        pre-streaming generator.

        Per country, in name order: the country's service flows, then
        its DNS flows, then its video sessions.
        """
        if not 0 <= day_lo < day_hi <= self.config.days:
            raise ValueError(
                f"day window [{day_lo}, {day_hi}) outside capture "
                f"[0, {self.config.days})"
            )
        pieces: List[Optional[Dict[str, np.ndarray]]] = []
        for country in self._shard_countries(shard):
            pieces.append(self._service_flows(country, rng, day_lo, day_hi))
            if self.config.include_dns:
                pieces.append(self._dns_flows(country, rng, day_lo, day_hi))
            if self._session_model is not None:
                # Video sessions draw from the same per-(shard, window)
                # stream, after the country's flow/DNS chunks; a
                # session is contained in one (customer, day), so
                # day-aligned windows never split it. When qoe is off
                # this branch consumes zero draws — baseline captures
                # stay bit-identical.
                pieces.append(self._session_flows(country, rng, day_lo, day_hi))
        pieces = [piece for piece in pieces if piece is not None]
        if not pieces:
            return None
        columns = {
            key: np.concatenate([piece.pop(key) for piece in pieces])
            for key in _KIND_COLUMNS
        }
        flow_cust = columns.pop("flow_cust")
        columns["day"] = columns["day"].astype(np.int32)
        columns["hour_utc"] = np.minimum(
            columns["hour_utc"].astype(np.float32), _HOUR_MAX_F4
        )
        return FlowFrame(
            countries=self.countries_pool,
            beams=self.beams_pool,
            services=self.services_pool,
            domains=self.domains_pool,
            sites=self.sites_pool,
            resolvers=self.resolvers_pool,
            customer_id=(flow_cust + 1).astype(np.int32),
            country_idx=self.cust_country_idx[flow_cust],
            subscriber_type=self.cust_type[flow_cust],
            beam_idx=self.cust_beam_idx[flow_cust],
            plan_down_mbps=self.cust_plan_down[flow_cust],
            **columns,
        )

    # -- per-country flows ------------------------------------------------------
    #
    # A country's service flows come in two passes. The draw pass
    # (``_draw_service_chunk``, one call per service) makes the chunk's
    # RNG calls in their fixed order and keeps the draws; its only
    # arithmetic is what a later draw's size or distribution depends
    # on. The compute pass (``_finish_flows``) then does the draw-free
    # work once over the country's concatenated draws. DNS and session
    # flows are one chunk per country, so they draw and compute in one
    # method.

    def _service_flows(
        self,
        country: _ShardCountry,
        rng: np.random.Generator,
        day_lo: int,
        day_hi: int,
    ) -> Optional[Dict[str, np.ndarray]]:
        parts = _Parts()
        for svc, probs in country.services:
            self._draw_service_chunk(
                country.plan, country.ids, svc, probs, rng, day_lo, day_hi, parts
            )
        return self._finish_flows(country.plan, parts) if parts.rows else None

    def _activity_pairs(
        self,
        cust_ids: np.ndarray,
        probs: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        day_lo: int = 0,
        day_hi: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(customer, day) pairs on which the service is used.

        ``day_lo``/``day_hi`` bound the half-open day range sampled
        (default: the whole capture). Day indices are absolute.
        """
        rng = rng if rng is not None else self.rng
        day_hi = self.config.days if day_hi is None else day_hi
        active = rng.random((len(cust_ids), day_hi - day_lo)) < probs[:, None]
        rows, day_idx = np.nonzero(active)
        return cust_ids[rows], day_idx + day_lo

    def _draw_service_chunk(
        self,
        country: _CountryPlan,
        cust_ids: np.ndarray,
        svc: _ServicePlan,
        probs: np.ndarray,
        rng: np.random.Generator,
        day_lo: int,
        day_hi: int,
        out: _Parts,
    ) -> None:
        pair_cust, pair_day = self._activity_pairs(cust_ids, probs, rng, day_lo, day_hi)
        n_pairs = len(pair_cust)
        if n_pairs == 0:
            return
        flow_int = (
            self.cust_flow_mult[pair_cust]
            * country.flow_factor[svc.index]
            * self.config.flow_scale
        )
        # Flows per active customer-day. The default path multiplies by
        # unit-median noise — bitwise-equal to the legacy bare
        # ``rng.lognormal(0, flows_sigma)`` draw — while a scenario
        # override replaces the median*noise product wholesale.
        if svc.flows is not None:
            raw_flows = flow_int * svc.flows.sample(rng, n_pairs)
        else:
            raw_flows = (
                svc.service.flows_median
                * flow_int
                * svc.flows_noise.sample(rng, n_pairs)
            )
        if svc.weight is not None:
            raw_flows = raw_flows * svc.weight
        n_flows = np.maximum(1, np.round(raw_flows).astype(np.int64))
        total = int(n_flows.sum())

        hour_local = country.sample_local_hours(rng, total)
        l7 = svc.service.sample_protocol(rng, total).astype(np.int8)
        # Day-to-day burstiness: a small fraction of customer-days are
        # binges (community APs more often) — these drive the
        # heavy-hitter tails of Figures 5b/5c. The day factor is a
        # two-mode lognormal Mixture whose first (binge) component's
        # weight is overridden per subscriber type.
        day_factor = self.traffic.day_factor
        if len(day_factor.components) == 2:
            day_draw = day_factor.sample(
                rng, n_pairs, first_weight=self.cust_binge_prob[pair_cust]
            )
        else:
            day_draw = day_factor.sample(rng, n_pairs)
        size_draw = svc.size.sample(rng, total)
        up_ratio = svc.up_ratio.sample(rng, total)
        domain_draw = rng.integers(0, svc.n_domains, total)
        ecs_draw = rng.random(total) if svc.ecs else None
        jitter = self._jitter_noise.sample(rng, total)
        # The beam loads are computed here, not in the compute pass: the
        # RTT sampler's ``geometric`` draw consumes a load-dependent
        # number of variates.
        flow_cust = np.repeat(pair_cust, n_flows)
        shape = diurnal_shape(hour_local, country.continent)
        utilization = utilization_at(self.cust_beam_peak[flow_cust], shape)
        https = l7 == _HTTPS_IDX
        rtt = None
        if https.any():
            t_s = None  # a static source ignores flow start times
            if self.delay_source.is_time_varying:
                flow_day = np.repeat(pair_day, n_flows)[https]
                hour_utc = utc_hour(country.location, hour_local[https])
                t_s = flow_day * SECONDS_PER_DAY + hour_utc * 3600.0
            rtt = self.delay_source.sample_handshake_rtt_bulk(
                country.name,
                utilization[https],
                pep_load_at(self.cust_beam_pep[flow_cust[https]], shape[https]),
                t_s,
                rng,
            )
        durations = self._duration_draws(rng, total, svc.video)
        out.add(
            total,
            pair_cust=pair_cust,
            pair_day=pair_day,
            n_flows=n_flows,
            svc=svc.index,
            size_factor=country.size_factor[svc.index],
            hour_local=hour_local,
            utilization=utilization,
            l7=l7,
            day_draw=day_draw,
            size_draw=size_draw,
            up_ratio=up_ratio,
            domain_draw=domain_draw,
            ecs_draw=ecs_draw,
            jitter=jitter,
            rtt=rtt,
            **durations,
        )

    @staticmethod
    def _duration_draws(
        rng: np.random.Generator, total: int, video: bool
    ) -> Dict[str, np.ndarray]:
        """The draws :meth:`_durations` consumes, in draw order."""
        draws = {
            "frac": rng.beta(6.0, 1.4, total),
            "slow": rng.uniform(0.5, 1.0, total),
            "shared": rng.uniform(0.25, 0.7, total),
        }
        if video:
            draws["bitrate"] = rng.integers(0, 4, total)
            draws["limited"] = rng.random(total)
        draws["reuse"] = rng.random(total)
        draws["tail"] = rng.exponential(0.15, total)
        return draws

    def _finish_flows(
        self, country: _CountryPlan, parts: _Parts
    ) -> Dict[str, np.ndarray]:
        n_flows = parts["n_flows"]
        flow_cust = np.repeat(parts["pair_cust"], n_flows)
        flow_day = np.repeat(parts["pair_day"], n_flows)
        svc = parts.per_row("svc", np.int16)
        ts, hour_utc = _start_times(country.location, flow_day, parts["hour_local"])
        size_scale = (
            self.cust_size_scale[flow_cust]
            * parts.per_row("size_factor", np.float64)
            * np.repeat(parts["day_draw"], n_flows)
        )
        bytes_down = parts["size_draw"] * size_scale
        l7 = parts["l7"]
        sat_rtt = np.full(len(l7), np.nan, dtype=np.float32)
        https = l7 == _HTTPS_IDX
        if https.any():
            sat_rtt[https] = (parts["rtt"] * 1000.0).astype(np.float32)
        site = self._select_sites(
            svc, country.index, flow_cust, parts.chunks.pop("ecs_draw", None)
        )
        domain = self._domain_table[self._svc_domain_offset[svc] + parts["domain_draw"]]
        return _filled(
            parts.rows,
            {
                "flow_cust": flow_cust,
                "ts_start": ts,
                "day": flow_day,
                "hour_utc": hour_utc,
                "l7_idx": l7,
                "service_true_idx": svc,
                "domain_idx": domain,
                "bytes_up": bytes_down * parts["up_ratio"],
                "bytes_down": bytes_down,
                "duration_s": self._durations(
                    svc,
                    flow_cust,
                    bytes_down,
                    parts["utilization"],
                    sat_rtt,
                    country.continent,
                    parts,
                ),
                "sat_rtt_ms": sat_rtt,
                "ground_rtt_ms": (self._site_base_rtt[site] * parts["jitter"]).astype(
                    np.float32
                ),
                "site_idx": site,
            },
        )

    def _select_sites(
        self,
        svc: np.ndarray,
        country_idx: int,
        flow_cust: np.ndarray,
        ecs_draws: Optional[Sequence[np.ndarray]],
    ) -> np.ndarray:
        """Server site per flow of one country's customers.

        Flows go to the site their resolver's egress selects. For
        services steered through ECS, a flow whose resolver forwards
        the client subnet goes to the country's own site with the
        resolver's ECS accuracy; ``ecs_draws`` holds one uniform per
        such flow, in flow order.
        """
        resolver = self.cust_resolver_idx[flow_cust]
        site = self._site_by_resolver[svc, resolver]
        steered = self._svc_ecs[svc]
        if steered.any():
            res = resolver[steered]
            hit = self._resolver_is_ecs[res] & (
                np.concatenate(ecs_draws) < self._resolver_ecs_accuracy[res]
            )
            country_site = self._site_by_country[svc[steered], country_idx]
            site[steered] = np.where(hit, country_site, site[steered])
        return site

    def _durations(
        self,
        svc: np.ndarray,
        flow_cust: np.ndarray,
        bytes_down: np.ndarray,
        utilization: np.ndarray,
        sat_rtt_ms: np.ndarray,
        continent: str,
        draws: Mapping[str, np.ndarray],
    ) -> np.ndarray:
        """Probe-side flow durations from :meth:`_duration_draws`."""
        congestion = np.clip((utilization - 0.55) / 0.45, 0.0, 1.0)
        rate = (
            self.cust_plan_bps[flow_cust]
            * draws["frac"]
            * (1.0 - 0.55 * congestion * draws["slow"])
        )
        rate = np.where(self.cust_community[flow_cust], rate * draws["shared"], rate)
        if continent == "Africa":
            rate *= 0.9  # less capable end-user terminals (Section 6.5)
        video = self._svc_video[svc]
        if video.any():
            # rate-limited streaming for about half the flows
            bitrate = _VIDEO_BITRATES_MBPS[draws["bitrate"]] * 1e6
            limited = draws["limited"] < 0.5
            streamed = rate[video]
            rate[video] = np.where(limited, np.minimum(streamed, bitrate), streamed)
        rate = np.maximum(rate, 20_000.0)
        # Bulk transfers mostly ride reused (kept-alive) connections, so
        # their probe-side duration is transfer-dominated — that is what
        # puts the Figure 11a knees at the commercial plan rates.
        handshake = np.where(np.isnan(sat_rtt_ms), 600.0, sat_rtt_ms) / 1000.0
        reused = (bytes_down > 5e6) & (draws["reuse"] < 0.7)
        handshake = np.where(reused, 0.0, handshake)
        return (bytes_down * 8.0 / rate + handshake + draws["tail"]).astype(np.float32)

    def _dns_flows(
        self,
        country: _ShardCountry,
        rng: np.random.Generator,
        day_lo: int,
        day_hi: int,
    ) -> Optional[Dict[str, np.ndarray]]:
        days = day_hi - day_lo
        counts = rng.poisson(np.tile(country.dns_mean, days))
        total = int(counts.sum())
        if total == 0:
            return None
        flow_cust = np.repeat(np.tile(country.ids, days), counts)
        flow_day = np.repeat(
            np.repeat(np.arange(day_lo, day_hi), len(country.ids)), counts
        )
        hour_local = country.plan.sample_local_hours(rng, total)

        resolver_idx = self.cust_resolver_idx[flow_cust]
        # a small fraction of queries go to secondary resolvers
        stray = rng.random(total) < 0.08
        if stray.any():
            resolver_idx[stray] = rng.integers(
                0, len(self.resolvers_pool), stray.sum()
            )
        # one draw batch per resolver, sized by the mix drawn just above
        response = np.empty(total, dtype=np.float32)
        for r_idx in np.unique(resolver_idx):
            mask = resolver_idx == r_idx
            resolver = RESOLVERS[self.resolvers_pool[r_idx]]
            response[mask] = resolver.sample_response_ms(
                self.internet.latency, rng, int(mask.sum())
            ).astype(np.float32)
        bytes_up = rng.integers(60, 90, total).astype(np.float64)
        bytes_down = rng.integers(120, 400, total).astype(np.float64)

        ts, hour_utc = _start_times(country.plan.location, flow_day, hour_local)
        return _filled(
            total,
            {
                "flow_cust": flow_cust,
                "ts_start": ts,
                "day": flow_day,
                "hour_utc": hour_utc,
                "l7_idx": np.full(total, _DNS_IDX, dtype=np.int8),
                "bytes_up": bytes_up,
                "bytes_down": bytes_down,
                "duration_s": response / 1000.0,
                "ground_rtt_ms": response,
                "resolver_idx": resolver_idx,
                "dns_response_ms": response,
            },
        )

    def _session_flows(
        self,
        country: _ShardCountry,
        rng: np.random.Generator,
        day_lo: int,
        day_hi: int,
    ) -> Optional[Dict[str, np.ndarray]]:
        """ABR video sessions for one country's shard customers.

        Each session's stochastic inputs (count, arrival hour, service,
        duration, effective capacity, domain) are drawn here; the
        chunk schedule and QoE come from the deterministic
        :class:`VideoSessionModel`, which consumes no draws. Every
        chunk row carries the session id and the session's QoE
        metrics, so any sharding or windowing of the frame can
        reconstruct per-session QoE by deduplicating on ``session_id``.
        """
        qoe = self.traffic.qoe
        days = day_hi - day_lo
        pair_cust = np.tile(country.ids, days)
        pair_day = np.repeat(np.arange(day_lo, day_hi), len(country.ids))
        counts = rng.poisson(qoe.sessions_per_day, len(pair_cust))
        n_sessions = int(counts.sum())
        if n_sessions == 0:
            return None
        sess_cust = np.repeat(pair_cust, counts)
        sess_day = np.repeat(pair_day, counts)
        hour_local = country.plan.sample_local_hours(rng, n_sessions)
        svc_pick = self._video_service_idx[
            rng.integers(0, len(self._video_service_idx), n_sessions)
        ]
        duration = np.clip(
            qoe.duration.sample(rng, n_sessions), qoe.chunk_s, 4.0 * 3600.0
        )
        utilization = utilization_at(
            self.cust_beam_peak[sess_cust],
            diurnal_shape(hour_local, country.plan.continent),
        )
        congestion = np.clip((utilization - 0.55) / 0.45, 0.0, 1.0)
        capacity = (
            self.cust_plan_bps[sess_cust]
            * rng.uniform(0.55, 0.95, n_sessions)
            * (1.0 - 0.55 * congestion)
        )
        capacity = np.maximum(capacity, 200_000.0)

        n_domains = [plan.n_domains for plan in self._service_plans]
        results = []
        domain_draw = []
        for cap, dur, svc_idx in zip(
            capacity.tolist(), duration.tolist(), svc_pick.tolist()
        ):
            results.append(self._session_model.simulate(cap, dur))
            # one scalar draw per session: a vectorised draw over
            # varying bounds would consume the stream differently
            domain_draw.append(int(rng.integers(0, n_domains[svc_idx])))

        # ordinal of each session within its (customer, day) pair →
        # a deterministic, partition-independent session id
        ordinal = np.arange(n_sessions) - np.repeat(np.cumsum(counts) - counts, counts)
        session_ids = (
            (sess_cust.astype(np.int64) + 1) * 1_000_000
            + sess_day.astype(np.int64) * 1_000
            + ordinal
        )
        session_ts, _ = _start_times(country.plan.location, sess_day, hour_local)
        domain = self._domain_table[self._svc_domain_offset[svc_pick] + domain_draw]
        n_chunks = np.array([len(result.chunk_bytes) for result in results])

        def per_chunk(values, dtype=None) -> np.ndarray:
            return np.repeat(np.asarray(values, dtype=dtype), n_chunks)

        chunk_bytes = np.concatenate([result.chunk_bytes for result in results])
        ts = per_chunk(session_ts) + np.concatenate(
            [result.start_offset_s for result in results]
        )
        return _filled(
            len(ts),
            {
                "flow_cust": per_chunk(sess_cust),
                "ts_start": ts,
                "day": per_chunk(sess_day),
                "hour_utc": (ts % SECONDS_PER_DAY) / 3600.0,
                "l7_idx": np.full(len(ts), _HTTPS_IDX, dtype=np.int8),
                "service_true_idx": per_chunk(svc_pick, np.int16),
                "domain_idx": per_chunk(domain),
                "bytes_up": chunk_bytes * 0.01,
                "bytes_down": chunk_bytes,
                "duration_s": np.concatenate(
                    [result.chunk_time_s for result in results]
                ).astype(np.float32),
                "session_id": per_chunk(session_ids),
                "qoe_rebuffer": per_chunk(
                    [result.rebuffer_ratio for result in results], np.float32
                ),
                "qoe_level": per_chunk(
                    [result.mean_level for result in results], np.float32
                ),
                "qoe_switches": per_chunk(
                    [result.switches for result in results], np.int16
                ),
            },
        )
