"""One declarative scenario tree for every operator knob.

The paper's analyses are all conditioned on operator configuration —
beam capacities, TDMA framing, PEP saturation, QoS shaping, the plan
mix (Sections 2.1–2.2, Figures 8/11). This module gathers those knobs,
previously scattered as dataclass defaults across ``satcom/*`` and four
unrelated config objects (``WorkloadConfig``, ``StreamConfig``,
``PacketSimConfig``, ``QosScenarioConfig``), into a single typed
:class:`Scenario` tree:

``geometry``   orbital regime (GEO slot or a LEO shell)
``constellation`` time-varying delay engine — orbital shells, the
               ~15 s reconfiguration epoch and the handover spike
               (content only when switched out of ``static`` mode)
``beams``      load scaling and beam outages on the default beam plan
``mac``        TDMA/Aloha framing and the stack-processing delays
``channel``    FEC residual error / ARQ recovery knobs
``pep``        PEP setup/forwarding saturation knobs
``qos``        the QoS micro-simulation's offered load and shaping
``plans``      commercial plan mix per continent (Section 6.5)
``population`` who subscribes (count, countries)
``workload``   what they do (days, seed, flow scaling, DNS rate)
``traffic``    the session-structured traffic model — per-category mix
               weights, per-service distribution overrides
               (``lognormal(...)`` spec strings) and the video-QoE
               session knobs (content only when moved off defaults)
``stream``     windowing of streaming captures (content)
``execution``  workers / spill compression (never content)
``fleet``      distributed capture partitioning — partitions,
               parallelism, straggler policy (never content; see
               :mod:`repro.fleet`)
``faults``     seeded chaos plan — injected IO errors, worker
               crashes, kill-points (never content; see
               :mod:`repro.faults`)

A scenario can be loaded from TOML or JSON (sparse: unspecified fields
keep the baseline defaults), overridden with dotted ``--set`` paths
(override precedence beats file values), and is validated field by
field with **path-qualified** :class:`ScenarioError` messages
(``beams.utilization_scale: must be in (0, 3]``). Each section field
declares its own rule (:func:`rule`: a bound, a known-name set, a
distribution spec) and one walk, :func:`_check_section`, checks the tree.

:meth:`Scenario.digest` is *the* cache identity of the capture the
scenario generates. When every model section sits at the baseline
defaults the digest deliberately equals the legacy
:func:`repro.cache.config_cache_key` of the mapped ``WorkloadConfig``,
so warm caches (and half-written stream checkpoints) survive the
refactor; any model deviation switches to a full-tree digest. The
``qos`` section never contributes — the QoS micro-sim is self-contained
and does not shape the capture. ``execution`` never contributes either.

Named scenarios live in a registry (:func:`get_scenario`,
:func:`scenario_names`): ``baseline-geo`` (bit-identical to the
pre-scenario defaults), ``congested-beam``, ``beam-outage``, ``leo``,
``heavy-growth``, ``leo-starlink`` (orbital motion + handovers) and
``multi-orbit`` (two shells).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.constants import ALOHA_SLOT_S, TDMA_FRAME_S
from repro.faults import FAULT_PROFILES, KILL_POINT_FORMS, KILL_POINT_GRAMMAR
from repro.internet.geo import COUNTRIES, SATELLITE_LONGITUDE_DEG
from repro.satcom.beams import Beam, BeamMap, build_default_beam_map
from repro.satcom.channel import ChannelModel
from repro.satcom.constellation import ConstellationModel
from repro.satcom.geometry import SatelliteGeometry
from repro.satcom.leo import LeoGeometryAdapter, LeoShell
from repro.satcom.mac import SlottedAlohaModel, TdmaModel
from repro.satcom.pep import PepCapacityModel
from repro.satcom.plans import PLAN_MIX_BY_CONTINENT, PLANS
from repro.satcom.qos_sim import QosScenarioConfig
from repro.traffic.distributions import DistributionError, parse_spec
from repro.traffic.services import SERVICES, ServiceCategory
from repro.traffic.workload import TrafficModel, WorkloadConfig

#: Bump together with schema changes that alter what a digest covers.
SCENARIO_SALT = "repro-scenario-v1"


class ScenarioError(ValueError):
    """Invalid scenario content, qualified by the offending field path."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


# --------------------------------------------------------------------------
# Field rules (declared on each section field, checked by one walk)
# --------------------------------------------------------------------------


def _parse_bound(text: str) -> Optional[Tuple[Any, bool, Any, bool]]:
    """``(low, low_closed, high, high_closed)``; an end is a number, the
    name of a sibling field, or ``None`` (unbounded)."""
    if not text:
        return None
    match = re.fullmatch(r"(>=?) (\S+)", text)
    if match:
        return _end(match[2]), match[1] == ">=", None, True
    match = re.fullmatch(r"in ([\[(])([^,]+), ([^\])]+)([\])])", text)
    if match is None:
        raise ValueError(f"unparseable field bound {text!r}")
    return _end(match[2]), match[1] == "[", _end(match[3]), match[4] == "]"


def _end(token: str) -> Union[float, str]:
    try:
        return float(token)
    except ValueError:
        return token


def rule(
    default: Any = dataclasses.MISSING,
    bound: str = "",
    *,
    known: Optional[Tuple[str, Tuple[str, ...]]] = None,
    spec: bool = False,
    nonempty: bool = False,
    factory: Any = dataclasses.MISSING,
) -> Any:
    """A section field that declares the rule :func:`_check_section` holds it to.

    ``bound`` is the text after "must be" in the error message: ``> 0``,
    ``>= 1``, ``in (0, 3]``, ``in [0, 1)``; an end may name a sibling
    field (``>= chunk_s``). ``known=(noun, names)`` bounds the value, a
    tuple's elements or a mapping's keys to a named set (a string
    field's own default is always accepted, so an empty default reads as
    unset). ``spec`` marks distribution spec strings; ``nonempty`` a
    field that may not be empty. Tuple elements and mapping values are
    each held to ``bound`` and ``spec``.
    """
    accepted = frozenset(known[1]) if known else frozenset()
    if known and isinstance(default, str):
        accepted |= {default}
    metadata = {
        "bound": bound,
        "ends": _parse_bound(bound),
        "known": known,
        "accepted": accepted,
        "spec": spec,
        "nonempty": nonempty,
    }
    return field(default=default, default_factory=factory, metadata=metadata)


def _within(value: float, ends: Tuple[Any, bool, Any, bool], section: Any) -> bool:
    low, low_closed, high, high_closed = ends
    low, high = (getattr(section, e) if isinstance(e, str) else e for e in (low, high))
    return (low is None or value > low or (low_closed and value == low)) and (
        high is None or value < high or (high_closed and value == high)
    )


def _check_section(section: Any, path: str) -> None:
    """Hold every field of ``section`` (nested sections included) to its
    declared rule, then run the section's cross-field ``_check``."""
    for f in fields(section):
        value = getattr(section, f.name)
        where = f"{path}.{f.name}"
        if dataclasses.is_dataclass(value):
            _check_section(value, where)
        elif f.metadata and value is not None:
            _check_field(section, f.metadata, value, where)
    check = getattr(section, "_check", None)
    if check is not None:
        check(path)


def _check_field(section: Any, meta: Mapping[str, Any], value: Any, path: str) -> None:
    if meta["nonempty"] and not value:
        raise ScenarioError(path, "must not be empty")
    if isinstance(value, dict):
        items = [(key, item, f"{path}.{key}") for key, item in value.items()]
    else:
        elements = value if isinstance(value, tuple) else (value,)
        items = [(item, item, path) for item in elements]
    for name, item, where in items:
        if meta["known"] and name not in meta["accepted"]:
            noun, names = meta["known"]
            raise ScenarioError(
                where, f"unknown {noun} {name!r} (known: {', '.join(names)})"
            )
        if meta["ends"] and not _within(item, meta["ends"], section):
            raise ScenarioError(where, f"must be {meta['bound']}")
        if meta["spec"]:
            try:
                parse_spec(item)
            except DistributionError as exc:
                raise ScenarioError(where, str(exc)) from exc


# --------------------------------------------------------------------------
# Sections
# --------------------------------------------------------------------------

_DEFAULT_BEAMS = build_default_beam_map().beams
_BEAM_IDS = tuple(sorted(beam.beam_id for beam in _DEFAULT_BEAMS))

#: Scenario-facing category keys → :class:`ServiceCategory`.
_CATEGORY_KEYS: Dict[str, ServiceCategory] = {
    category.name.lower(): category for category in ServiceCategory
}


@dataclass(frozen=True)
class GeometrySpec:
    """Orbital regime: the monitored GEO bird, or a LEO shell."""

    orbit: str = rule("geo", known=("orbit", ("geo", "leo")))
    satellite_longitude_deg: float = rule(SATELLITE_LONGITUDE_DEG, "in [-180, 180]")
    leo_altitude_km: float = rule(550.0, "in [200, 2000]")
    leo_min_elevation_deg: float = rule(25.0, "in [5, 90)")
    leo_typical_elevation_deg: float = rule(50.0, "in [leo_min_elevation_deg, 90]")


@dataclass(frozen=True)
class ConstellationSpec:
    """The time-varying constellation delay engine (DESIGN §14).

    ``mode="static"`` (the default) keeps the pre-refactor behavior —
    the capture's RTT distribution is fixed for the whole run and the
    section contributes nothing to the digest, so every existing
    scenario keeps its cache identity. ``mode="orbital"`` activates a
    :class:`~repro.satcom.constellation.ConstellationModel` built from
    these shells: the RTT floor then moves per ~15 s scheduling epoch
    and flows starting inside the post-handover window pay the spike.
    """

    mode: str = rule("static", known=("mode", ("static", "orbital")))
    altitudes_km: Tuple[float, ...] = rule((550.0,), "in [200, 2000]", nonempty=True)
    satellites_per_shell: Tuple[int, ...] = rule((1584,), ">= 1")
    min_elevation_deg: float = rule(25.0, "in [5, 90)")
    bent_pipe: bool = True
    reconfiguration_s: float = rule(15.0, "> 0")
    handover_window_s: float = rule(1.0, "in [0, reconfiguration_s]")
    handover_penalty_ms: float = rule(8.0, ">= 0")

    def _check(self, path: str) -> None:
        if len(self.satellites_per_shell) != len(self.altitudes_km):
            raise ScenarioError(
                f"{path}.satellites_per_shell",
                "must have one entry per shell in altitudes_km",
            )


@dataclass(frozen=True)
class BeamsSpec:
    """Transformations of the default beam plan (Section 6.1)."""

    utilization_scale: float = rule(1.0, "in (0, 3]")
    pep_scale: float = rule(1.0, "in (0, 3]")
    outages: Tuple[str, ...] = rule((), known=("beam", _BEAM_IDS))
    load_cap: float = rule(0.97, "in (0, 1)")
    """Loads are clipped here after scaling (``Beam`` requires < 1)."""

    def _check(self, path: str) -> None:
        for country in dict.fromkeys(beam.country for beam in _DEFAULT_BEAMS):
            if all(
                beam.beam_id in self.outages
                for beam in _DEFAULT_BEAMS
                if beam.country == country
            ):
                raise ScenarioError(
                    f"{path}.outages",
                    f"cannot take every beam of {country} out of service",
                )


@dataclass(frozen=True)
class MacSpec:
    """Return-link MAC framing plus the SatCom stack's processing delays."""

    tdma_frame_s: float = rule(TDMA_FRAME_S, "> 0")
    max_queue_frames: float = rule(10.0, "> 0")
    aloha_slot_s: float = rule(ALOHA_SLOT_S, "> 0")
    reservation_rtt_s: float = rule(0.52, "> 0")
    max_backoff_slots: int = rule(64, ">= 1")
    contention_fraction: float = rule(0.12, "in [0, 1]")
    base_processing_s: float = rule(0.020, ">= 0")
    terminal_median_s: float = rule(0.030, "> 0")
    terminal_sigma: float = rule(0.85, ">= 0")
    stack_jitter_median_s: float = rule(0.095, "> 0")
    stack_jitter_sigma: float = rule(1.0, ">= 0")


@dataclass(frozen=True)
class ChannelSpec:
    """Residual FEC error / ARQ recovery (Ireland's edge-of-coverage tail)."""

    floor_probability: float = rule(0.002, "in [0, 1)")
    edge_probability: float = rule(0.55, "in [0, 1]")
    reference_elevation_deg: float = rule(20.0, ">= 0")
    decay_deg: float = rule(3.5, "> 0")
    arq_rtt_s: float = rule(0.52, "> 0")


@dataclass(frozen=True)
class PepSpec:
    """PEP processing saturation (Section 6.1's congestion mechanism)."""

    setup_scale_s: float = rule(0.080, ">= 0")
    setup_sigma: float = rule(1.1, ">= 0")
    forward_scale_s: float = rule(0.010, ">= 0")
    max_load_ratio: float = rule(10.0, "> 0")


@dataclass(frozen=True)
class QosSpec:
    """The QoS micro-simulation's link and shaping knobs.

    Never part of the capture digest: the micro-sim is self-contained
    and does not shape the generated flows.
    """

    link_rate_bps: float = rule(20e6, "> 0")
    duration_s: float = rule(20.0, "> 0")
    seed: int = 0
    video_shape_bps: Optional[float] = rule(6e6, "> 0")


def _plan_mix(continent: str) -> Any:
    return rule(
        bound="> 0",
        known=("plan", tuple(PLANS)),
        nonempty=True,
        factory=lambda: dict(PLAN_MIX_BY_CONTINENT[continent]),
    )


@dataclass(frozen=True)
class PlansSpec:
    """Commercial plan adoption per continent (Section 6.5)."""

    europe_mix: Dict[str, float] = _plan_mix("Europe")
    africa_mix: Dict[str, float] = _plan_mix("Africa")

    def __post_init__(self) -> None:
        # Canonical plan-catalog order: the mix feeds an rng.choice over
        # dict order, so two files listing the same weights in different
        # order must still sample identically (and digest identically).
        for name in ("europe_mix", "africa_mix"):
            mix = getattr(self, name)
            ordered = {plan: mix[plan] for plan in PLANS if plan in mix}
            ordered.update({plan: mix[plan] for plan in mix if plan not in PLANS})
            object.__setattr__(self, name, ordered)

    def mix_by_continent(self) -> Dict[str, Dict[str, float]]:
        return {"Europe": dict(self.europe_mix), "Africa": dict(self.africa_mix)}


@dataclass(frozen=True)
class PopulationSpec:
    """Who subscribes."""

    n_customers: int = rule(600, ">= 1")
    countries: Optional[Tuple[str, ...]] = rule(
        None, known=("country", tuple(COUNTRIES)), nonempty=True
    )


@dataclass(frozen=True)
class WorkloadSpec:
    """What the population does over the capture."""

    days: int = rule(5, ">= 1")
    seed: int = 2022
    flow_scale: float = rule(1.0, "> 0")
    include_dns: bool = True
    dns_flows_per_day: float = rule(25.0, ">= 0")
    n_shards: Optional[int] = rule(None, ">= 1")


@dataclass(frozen=True)
class QoeSpec:
    """Video-QoE session knobs (``traffic.qoe``)."""

    enabled: bool = False
    sessions_per_day: float = rule(0.6, ">= 0")
    chunk_s: float = rule(4.0, "> 0")
    startup_chunks: int = rule(3, ">= 1")
    max_buffer_s: float = rule(30.0, ">= chunk_s")
    bitrate_ladder_mbps: Tuple[float, ...] = rule(
        (1.0, 2.5, 4.0, 8.0, 16.0), "> 0", nonempty=True
    )
    duration: str = rule("lognormal(900.0,0.8)", spec=True)
    shape_bps: Optional[float] = rule(None, "> 0")

    def _check(self, path: str) -> None:
        ladder = self.bitrate_ladder_mbps
        if any(low >= high for low, high in zip(ladder, ladder[1:])):
            raise ScenarioError(
                f"{path}.bitrate_ladder_mbps", "must be ascending positive rates"
            )


def _service_overrides() -> Any:
    return rule(known=("service", tuple(SERVICES)), spec=True, factory=dict)


@dataclass(frozen=True)
class TrafficSpec:
    """The session-structured traffic model (DESIGN §15).

    All-defaults reproduces the legacy hard-coded draws bit-for-bit
    and contributes nothing to the digest; any deviation (a category
    weight, a per-service distribution spec string, enabling QoE
    sessions) makes the section content and forks the capture
    identity — exactly the ``constellation`` discipline.
    """

    category_weights: Dict[str, float] = rule(
        bound="> 0", known=("category", tuple(_CATEGORY_KEYS)), factory=dict
    )
    size_overrides: Dict[str, str] = _service_overrides()
    flows_overrides: Dict[str, str] = _service_overrides()
    qoe: QoeSpec = field(default_factory=QoeSpec)


@dataclass(frozen=True)
class StreamSpec:
    """Window plan of streaming captures — content, like ``n_shards``."""

    window_days: int = rule(1, ">= 1")


@dataclass(frozen=True)
class ExecutionSpec:
    """How to run — never content, never part of any digest."""

    workers: int = rule(1, ">= 0")
    """Worker processes; 0 means one per core."""
    compress: bool = True
    """Compress spilled stream windows (CPU for ~3x less disk)."""
    pipeline_depth: int = rule(1, ">= 0")
    """Windows the stream producer may generate ahead of the commit
    thread; 0 runs lockstep. Peak residency is ``depth + 2`` window
    frames."""


@dataclass(frozen=True)
class FleetSpec:
    """Distributed fleet capture (``repro.fleet``) — never content.

    Like ``execution``, the section only decides *how* the capture is
    produced: the merged fleet rollup is bit-identical to the
    single-process stream for any partition count, so none of these
    knobs contribute to the digest.
    """

    partitions: int = rule(1, ">= 1")
    """Disjoint shard-range partitions the capture is split into
    (clamped to the shard count of the plan)."""
    max_parallel: int = rule(4, ">= 1")
    """Worker subprocesses allowed to run at once."""
    straggler_timeout_s: float = rule(120.0, "> 0")
    """Seconds without checkpoint progress before the coordinator
    SIGKILLs a worker and heals it via resume."""
    max_heals: int = rule(3, ">= 0")
    """Heal (resume) attempts per partition before the fleet fails."""


@dataclass(frozen=True)
class FaultsSpec:
    """Deterministic fault injection for chaos runs (``repro.faults``).

    Disabled by default, and *never* content: faults change retries and
    timing, not the generated flows, so the section stays outside every
    digest — arming a chaos plan neither invalidates warm caches nor
    forks the capture identity. Either name a registered ``profile``
    (e.g. ``flaky-disk``) or compose a plan from the rate knobs; both
    can be combined, and ``seed`` makes the chaos reproducible.
    """

    profile: str = rule("", known=("fault profile", tuple(FAULT_PROFILES)))
    """A :data:`repro.faults.FAULT_PROFILES` name, or empty."""
    seed: int = 0
    io_error_rate: float = rule(0.0, "in [0, 1]")
    """Per-operation probability of a transient write error."""
    io_fail_times: int = rule(1, ">= 1")
    """Consecutive failing attempts per triggered IO fault."""
    fsync_error_rate: float = rule(0.0, "in [0, 1]")
    worker_crash_rate: float = rule(0.0, "in [0, 1]")
    """Per-(window, shard) probability a forked worker dies."""
    kill_at: Tuple[str, ...] = ()
    """Named kill-points (``repro.faults.KILL_POINT_GRAMMAR``)."""

    @property
    def enabled(self) -> bool:
        return bool(
            self.profile
            or self.io_error_rate
            or self.fsync_error_rate
            or self.worker_crash_rate
            or self.kill_at
        )

    def _check(self, path: str) -> None:
        for name in self.kill_at:
            if KILL_POINT_GRAMMAR.fullmatch(name) is None:
                raise ScenarioError(
                    f"{path}.kill_at",
                    f"unknown kill-point {name!r} (known: {KILL_POINT_FORMS})",
                )


@dataclass(frozen=True)
class ServeSpec:
    """The live analytics service (``repro.serve``) — never content.

    Serving is a read path over the committed rollup: it can never
    change which flows a capture contains, so the section stays
    outside every digest, exactly like ``execution`` and ``fleet``.
    """

    enabled: bool = False
    """Serve live reports while the capture runs."""
    host: str = rule("127.0.0.1", nonempty=True)
    port: int = rule(0, "in [0, 65535]")
    """TCP port; 0 binds an ephemeral port (printed at startup)."""
    linger_s: float = rule(0.0, ">= 0")
    """Seconds to keep serving after the capture completes — the CI
    smoke job and dashboard demos poll the finished state."""
    publish_interval_s: float = rule(0.25, "> 0")
    """Fleet only: minimum seconds between merged partial-state
    publications while the coordinator polls its workers."""
    max_inflight: int = rule(64, ">= 1")
    """Concurrent renders the server allows before queueing requests
    (backpressure; renders are GIL-bound numpy)."""


_SECTION_TYPES: Dict[str, type] = {
    "geometry": GeometrySpec,
    "constellation": ConstellationSpec,
    "beams": BeamsSpec,
    "mac": MacSpec,
    "channel": ChannelSpec,
    "pep": PepSpec,
    "qos": QosSpec,
    "plans": PlansSpec,
    "population": PopulationSpec,
    "workload": WorkloadSpec,
    "traffic": TrafficSpec,
    "stream": StreamSpec,
    "execution": ExecutionSpec,
    "fleet": FleetSpec,
    "faults": FaultsSpec,
    "serve": ServeSpec,
}

#: Sections that decide which flows a capture contains. ``qos`` shapes
#: only the micro-sim; ``execution`` only wall-clock; ``stream`` only
#: windowing (``stream_capture_key`` layers it on separately, exactly
#: as the legacy path did); ``fleet`` only partitions execution (the
#: merged rollup is bit-identical at any partition count); ``faults``
#: only injects failures (retried or healed, never sampled into the
#: flows); ``name``/``description`` are labels. ``constellation`` and
#: ``traffic`` join conditionally (:data:`_CONDITIONAL_BASELINES`):
#: orbital motion, distribution overrides and QoE sessions change the
#: flows, so a non-default section is content, while a default one
#: contributes nothing and every pre-refactor digest stays byte-stable.
_CONTENT_SECTIONS = (
    "geometry",
    "beams",
    "mac",
    "channel",
    "pep",
    "plans",
    "population",
    "workload",
)

#: Model sections — when all of these sit at the baseline defaults the
#: digest falls back to the legacy ``WorkloadConfig`` cache key.
_MODEL_SECTIONS = ("geometry", "beams", "mac", "channel", "pep", "plans")


# --------------------------------------------------------------------------
# Coercion (mapping -> typed sections, with path-qualified errors)
# --------------------------------------------------------------------------


def _coerce(raw: Any, hint: Any, path: str) -> Any:
    origin = get_origin(hint)
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        # nested section (e.g. traffic.qoe): recurse with the same
        # unknown-key/path-qualified discipline as top-level sections
        return _build_section(hint, raw, path)
    if origin is Union:  # Optional[X]
        args = [a for a in get_args(hint) if a is not type(None)]
        if raw is None:
            return None
        return _coerce(raw, args[0], path)
    if hint is float:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ScenarioError(path, f"expected a number, got {raw!r}")
        return float(raw)
    if hint is int:
        if isinstance(raw, bool):
            raise ScenarioError(path, f"expected an integer, got {raw!r}")
        if isinstance(raw, float):
            if not raw.is_integer():
                raise ScenarioError(path, f"expected an integer, got {raw!r}")
            return int(raw)
        if not isinstance(raw, int):
            raise ScenarioError(path, f"expected an integer, got {raw!r}")
        return raw
    if hint is bool:
        if not isinstance(raw, bool):
            raise ScenarioError(path, f"expected true/false, got {raw!r}")
        return raw
    if hint is str:
        if not isinstance(raw, str):
            raise ScenarioError(path, f"expected a string, got {raw!r}")
        return raw
    if origin is tuple:
        if isinstance(raw, str) or not isinstance(raw, (list, tuple)):
            raise ScenarioError(path, f"expected a list, got {raw!r}")
        element = get_args(hint)[0]
        return tuple(_coerce(item, element, path) for item in raw)
    if origin is dict:
        if not isinstance(raw, Mapping):
            raise ScenarioError(path, f"expected a table/mapping, got {raw!r}")
        _, value_hint = get_args(hint)
        return {
            str(key): _coerce(value, value_hint, f"{path}.{key}")
            for key, value in raw.items()
        }
    raise ScenarioError(path, f"unsupported field type {hint!r}")  # pragma: no cover


def _build_section(cls: type, data: Mapping[str, Any], path: str) -> Any:
    if not isinstance(data, Mapping):
        raise ScenarioError(path, f"expected a table/mapping, got {data!r}")
    hints = get_type_hints(cls)
    known = {f.name for f in fields(cls)}
    kwargs: Dict[str, Any] = {}
    for key, raw in data.items():
        if key not in known:
            raise ScenarioError(
                f"{path}.{key}",
                f"unknown key (expected one of: {', '.join(sorted(known))})",
            )
        kwargs[key] = _coerce(raw, hints[key], f"{path}.{key}")
    return cls(**kwargs)


def _section_payload(section: Any) -> Dict[str, Any]:
    """JSON-ready payload of one section (tuples as lists).

    Containers are copied: callers (``with_overrides``) mutate the
    payload, and the frozen sections share their dict fields.
    """
    payload: Dict[str, Any] = {}
    for f in fields(section):
        value = getattr(section, f.name)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            value = _section_payload(value)
        elif isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, dict):
            value = dict(value)
        payload[f.name] = value
    return payload


#: Sections that enter a digest only when a scenario moves them off
#: these all-defaults payloads, so every pre-refactor digest —
#: baseline-geo included — stays pinned.
_CONDITIONAL_BASELINES: Dict[str, Dict[str, Any]] = {
    "constellation": _section_payload(ConstellationSpec()),
    "traffic": _section_payload(TrafficSpec()),
}


# --------------------------------------------------------------------------
# The tree
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Everything the reproduction needs to run one operator scenario."""

    name: str = "custom"
    description: str = ""
    geometry: GeometrySpec = field(default_factory=GeometrySpec)
    constellation: ConstellationSpec = field(default_factory=ConstellationSpec)
    beams: BeamsSpec = field(default_factory=BeamsSpec)
    mac: MacSpec = field(default_factory=MacSpec)
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    pep: PepSpec = field(default_factory=PepSpec)
    qos: QosSpec = field(default_factory=QosSpec)
    plans: PlansSpec = field(default_factory=PlansSpec)
    population: PopulationSpec = field(default_factory=PopulationSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    stream: StreamSpec = field(default_factory=StreamSpec)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    fleet: FleetSpec = field(default_factory=FleetSpec)
    faults: FaultsSpec = field(default_factory=FaultsSpec)
    serve: ServeSpec = field(default_factory=ServeSpec)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "Scenario":
        """Build and validate a scenario from a nested mapping.

        Sparse: missing sections/fields keep the baseline defaults.
        Unknown sections or keys raise path-qualified
        :class:`ScenarioError`.
        """
        if not isinstance(data, Mapping):
            raise ScenarioError("scenario", f"expected a table/mapping, got {data!r}")
        kwargs: Dict[str, Any] = {}
        for key, raw in data.items():
            if key in ("name", "description"):
                kwargs[key] = _coerce(raw, str, key)
            elif key in _SECTION_TYPES:
                kwargs[key] = _build_section(_SECTION_TYPES[key], raw, key)
            else:
                raise ScenarioError(
                    key,
                    "unknown section (expected one of: name, description, "
                    f"{', '.join(_SECTION_TYPES)})",
                )
        scenario = cls(**kwargs)
        scenario.validate()
        return scenario

    def validate(self) -> "Scenario":
        """Validate every field; raises path-qualified :class:`ScenarioError`."""
        for section_name in _SECTION_TYPES:
            _check_section(getattr(self, section_name), section_name)
        return self

    def to_mapping(self) -> Dict[str, Any]:
        """The full nested mapping (inverse of :meth:`from_mapping`)."""
        data: Dict[str, Any] = {"name": self.name, "description": self.description}
        for section_name in _SECTION_TYPES:
            data[section_name] = _section_payload(getattr(self, section_name))
        return data

    def with_overrides(
        self, overrides: Mapping[str, Any], source: str = "--set"
    ) -> "Scenario":
        """A new validated scenario with dotted-path overrides applied.

        Keys are dotted field paths (``beams.utilization_scale``,
        ``plans.europe_mix.sat-100``); string values are parsed as JSON
        literals where possible (``true``, ``1.5``, ``null``,
        ``["Spain"]``) and taken verbatim otherwise.
        """
        if not overrides:
            return self
        data = self.to_mapping()
        for dotted, raw in overrides.items():
            keys = dotted.split(".")
            if not all(keys):
                raise ScenarioError(dotted, f"malformed {source} path")
            node: Dict[str, Any] = data
            for depth, key in enumerate(keys[:-1]):
                if key not in node or not isinstance(node[key], dict):
                    raise ScenarioError(
                        ".".join(keys[: depth + 1]),
                        f"unknown {source} path",
                    )
                node = node[key]
            # An unknown leaf is rejected by from_mapping (unknown key)
            # or by its field's ``known=`` rule (plan, category, service).
            node[keys[-1]] = _parse_override_value(raw)
        return Scenario.from_mapping(data)

    # -- identity ----------------------------------------------------------

    def _payload(self, sections: Tuple[str, ...]) -> Dict[str, Any]:
        """``sections``, plus each conditional section that deviates from
        its all-defaults payload (a default section must not perturb the
        digest of any pre-refactor scenario)."""
        payload = {
            section: _section_payload(getattr(self, section)) for section in sections
        }
        for section, baseline in _CONDITIONAL_BASELINES.items():
            current = _section_payload(getattr(self, section))
            if current != baseline:
                payload[section] = current
        return payload

    def content_payload(self) -> Dict[str, Any]:
        """The capture-defining payload (sections in `_CONTENT_SECTIONS`)."""
        return self._payload(_CONTENT_SECTIONS)

    def models_payload(self) -> Dict[str, Any]:
        return self._payload(_MODEL_SECTIONS)

    def is_baseline_models(self) -> bool:
        """True when every model section sits at the baseline defaults."""
        return self.models_payload() == _BASELINE_MODELS_PAYLOAD

    def digest(self) -> str:
        """Hex digest identifying the capture this scenario generates.

        This is the cache identity: ``repro.cache`` keys one-shot and
        streaming captures with it. With all model sections at baseline
        it equals the legacy ``WorkloadConfig`` cache key (same salt
        discipline — bump :data:`repro.cache.CACHE_SALT` when generator
        sampling changes), so pre-scenario cache entries keep hitting.
        """
        from repro.cache import CACHE_SALT, config_cache_key

        if self.is_baseline_models():
            return config_cache_key(self.workload_config())
        blob = json.dumps(
            {
                "salt": CACHE_SALT,
                "scenario_salt": SCENARIO_SALT,
                "content": self.content_payload(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]

    # -- builders ----------------------------------------------------------

    def workload_config(self) -> WorkloadConfig:
        """The :class:`WorkloadConfig` slice of the tree."""
        return WorkloadConfig(
            n_customers=self.population.n_customers,
            days=self.workload.days,
            seed=self.workload.seed,
            countries=(
                list(self.population.countries)
                if self.population.countries is not None
                else None
            ),
            flow_scale=self.workload.flow_scale,
            include_dns=self.workload.include_dns,
            dns_flows_per_day=self.workload.dns_flows_per_day,
            n_workers=self.execution.workers,
            n_shards=self.workload.n_shards,
        )

    def build_beam_map(self) -> BeamMap:
        """The scenario's beam plan: default map, scaled, minus outages."""
        base = build_default_beam_map()
        spec = self.beams
        if (
            spec.utilization_scale == 1.0
            and spec.pep_scale == 1.0
            and not spec.outages
        ):
            return base
        surviving: Dict[str, List[Beam]] = {}
        original_count: Dict[str, int] = {}
        for beam in base.beams:
            original_count[beam.country] = original_count.get(beam.country, 0) + 1
            if beam.beam_id not in spec.outages:
                surviving.setdefault(beam.country, []).append(beam)
        beams: List[Beam] = []
        for country, country_beams in surviving.items():
            # Survivors absorb the load of beams taken out of service.
            absorb = original_count[country] / len(country_beams)
            for beam in country_beams:
                beams.append(
                    Beam(
                        beam_id=beam.beam_id,
                        country=beam.country,
                        capacity_gbps=beam.capacity_gbps,
                        peak_utilization=min(
                            spec.load_cap,
                            beam.peak_utilization * spec.utilization_scale * absorb,
                        ),
                        pep_load=min(
                            spec.load_cap,
                            beam.pep_load * spec.pep_scale * absorb,
                        ),
                    )
                )
        return BeamMap(beams=beams)

    def build_geometry(self):
        """A GEO :class:`SatelliteGeometry` or a LEO adapter."""
        if self.geometry.orbit == "leo":
            return LeoGeometryAdapter(
                shell=LeoShell(
                    altitude_m=self.geometry.leo_altitude_km * 1000.0,
                    min_elevation_deg=self.geometry.leo_min_elevation_deg,
                ),
                typical_elevation_deg=self.geometry.leo_typical_elevation_deg,
            )
        return SatelliteGeometry(
            satellite_longitude_deg=self.geometry.satellite_longitude_deg
        )

    def build_rtt_model(self):
        """The satellite RTT sampler the scenario prescribes."""
        from repro.satcom.delay_model import SatelliteRttModel

        mac = self.mac
        return SatelliteRttModel(
            geometry=self.build_geometry(),
            beam_map=self.build_beam_map(),
            tdma=TdmaModel(
                frame_s=mac.tdma_frame_s, max_queue_frames=mac.max_queue_frames
            ),
            aloha=SlottedAlohaModel(
                slot_s=mac.aloha_slot_s,
                reservation_rtt_s=mac.reservation_rtt_s,
                max_backoff_slots=mac.max_backoff_slots,
            ),
            channel=ChannelModel(
                floor_probability=self.channel.floor_probability,
                edge_probability=self.channel.edge_probability,
                reference_elevation_deg=self.channel.reference_elevation_deg,
                decay_deg=self.channel.decay_deg,
                arq_rtt_s=self.channel.arq_rtt_s,
            ),
            pep=PepCapacityModel(
                setup_scale_s=self.pep.setup_scale_s,
                setup_sigma=self.pep.setup_sigma,
                forward_scale_s=self.pep.forward_scale_s,
                max_load_ratio=self.pep.max_load_ratio,
            ),
            base_processing_s=mac.base_processing_s,
            terminal_median_s=mac.terminal_median_s,
            terminal_sigma=mac.terminal_sigma,
            stack_jitter_median_s=mac.stack_jitter_median_s,
            stack_jitter_sigma=mac.stack_jitter_sigma,
            contention_fraction=mac.contention_fraction,
        )

    def build_constellation(self) -> ConstellationModel:
        """The ``constellation`` section as a :class:`ConstellationModel`."""
        spec = self.constellation
        shells = tuple(
            LeoShell(
                altitude_m=altitude_km * 1000.0,
                min_elevation_deg=spec.min_elevation_deg,
                bent_pipe=spec.bent_pipe,
            )
            for altitude_km in spec.altitudes_km
        )
        return ConstellationModel(
            shells=shells,
            satellites_per_shell=tuple(spec.satellites_per_shell),
            reconfiguration_s=spec.reconfiguration_s,
            handover_window_s=spec.handover_window_s,
        )

    def build_delay_source(self):
        """The scenario's :class:`~repro.satcom.delaysource.DelaySource`.

        ``static`` mode wraps :meth:`build_rtt_model` verbatim
        (byte-identical sampling); ``orbital`` mode layers the
        constellation's deterministic time-varying floor on top.
        """
        from repro.satcom.delaysource import (
            ConstellationDelaySource,
            StaticDelaySource,
        )

        model = self.build_rtt_model()
        if self.constellation.mode == "orbital":
            return ConstellationDelaySource(
                rtt_model=model,
                constellation=self.build_constellation(),
                handover_penalty_s=self.constellation.handover_penalty_ms / 1000.0,
            )
        return StaticDelaySource(rtt_model=model)

    def build_traffic_model(self) -> TrafficModel:
        """The ``traffic`` section resolved to a runtime model.

        Spec strings become sampled distributions, category keys become
        :class:`ServiceCategory` members, and the ``qoe`` sub-section
        (when enabled) becomes a
        :class:`~repro.traffic.sessions.VideoQoeConfig`.
        """
        from repro.traffic.sessions import VideoQoeConfig

        spec = self.traffic
        qoe = None
        if spec.qoe.enabled:
            qoe = VideoQoeConfig(
                sessions_per_day=spec.qoe.sessions_per_day,
                chunk_s=spec.qoe.chunk_s,
                startup_chunks=spec.qoe.startup_chunks,
                max_buffer_s=spec.qoe.max_buffer_s,
                ladder_mbps=tuple(spec.qoe.bitrate_ladder_mbps),
                duration=parse_spec(spec.qoe.duration),
                shape_bps=spec.qoe.shape_bps,
            )
        return TrafficModel(
            category_weights={
                _CATEGORY_KEYS[key]: float(weight)
                for key, weight in spec.category_weights.items()
            },
            size_dists={
                name: parse_spec(text)
                for name, text in spec.size_overrides.items()
            },
            flows_dists={
                name: parse_spec(text)
                for name, text in spec.flows_overrides.items()
            },
            qoe=qoe,
        )

    def build_generator(self):
        """A fully-constructed :class:`WorkloadGenerator` for this scenario."""
        from repro.traffic.workload import WorkloadGenerator

        return WorkloadGenerator(
            config=self.workload_config(),
            delay_source=self.build_delay_source(),
            plan_mix=self.plans.mix_by_continent(),
            traffic=self.build_traffic_model(),
        )

    def fault_plan(self):
        """The ``faults`` section as a :class:`repro.faults.FaultPlan`.

        ``None`` when the section is disabled (the default). A named
        profile seeds the plan; the rate knobs and ``kill_at`` layer on
        top of it.
        """
        from repro.faults import FAULT_PROFILES, FaultPlan, IoFault, WorkerCrash

        spec = self.faults
        if not spec.enabled:
            return None
        if spec.profile:
            plan = dataclasses.replace(FAULT_PROFILES[spec.profile], seed=spec.seed)
        else:
            plan = FaultPlan(seed=spec.seed)
        io_faults = list(plan.io_faults)
        if spec.io_error_rate > 0:
            io_faults.append(
                IoFault(
                    op="*",
                    stage="write",
                    rate=spec.io_error_rate,
                    fail_times=spec.io_fail_times,
                )
            )
        if spec.fsync_error_rate > 0:
            io_faults.append(
                IoFault(
                    op="*",
                    stage="fsync",
                    rate=spec.fsync_error_rate,
                    fail_times=spec.io_fail_times,
                )
            )
        crashes = list(plan.worker_crashes)
        if spec.worker_crash_rate > 0:
            crashes.append(WorkerCrash(rate=spec.worker_crash_rate))
        return dataclasses.replace(
            plan,
            io_faults=tuple(io_faults),
            worker_crashes=tuple(crashes),
            kill_at=plan.kill_at + tuple(spec.kill_at),
        )

    def stream_config(self):
        """A :class:`~repro.stream.producer.StreamConfig` bound to this tree."""
        from repro.stream.producer import StreamConfig

        return StreamConfig(
            workload=self.workload_config(),
            window_days=self.stream.window_days,
            compress=self.execution.compress,
            scenario=self,
            faults=self.fault_plan(),
            pipeline_depth=self.execution.pipeline_depth,
        )

    def qos_config(self) -> QosScenarioConfig:
        """The QoS micro-simulation config of the ``qos`` section."""
        return QosScenarioConfig(
            link_rate_bps=self.qos.link_rate_bps,
            duration_s=self.qos.duration_s,
            seed=self.qos.seed,
            video_shape_bps=self.qos.video_shape_bps,
        )


def _parse_override_value(raw: Any) -> Any:
    """CLI ``--set`` values arrive as strings; parse JSON-ish literals."""
    if not isinstance(raw, str):
        return raw
    try:
        return json.loads(raw)
    except ValueError:
        return raw


_BASELINE_MODELS_PAYLOAD = Scenario().models_payload()


# --------------------------------------------------------------------------
# Loader
# --------------------------------------------------------------------------


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Load a scenario from a TOML or JSON file (by suffix)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(str(path), f"cannot read scenario file ({exc})") from exc
    suffix = path.suffix.lower()
    if suffix == ".json":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ScenarioError(str(path), f"invalid JSON ({exc})") from exc
    elif suffix == ".toml":
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioError(str(path), f"invalid TOML ({exc})") from exc
    else:
        raise ScenarioError(
            str(path), "unsupported scenario file type (use .toml or .json)"
        )
    return Scenario.from_mapping(data)


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

_REGISTRY: Dict[str, Scenario] = {}


def _register(base: Scenario, name: str, description: str, **overrides: Any) -> None:
    scenario = base.with_overrides(
        {"name": name, "description": description, **overrides}
    )
    _REGISTRY[name] = scenario


_BASELINE = Scenario(
    name="baseline-geo",
    description="The monitored GEO operator exactly as the paper observed it",
).validate()
_REGISTRY[_BASELINE.name] = _BASELINE

_register(
    _BASELINE,
    "congested-beam",
    "Every beam pushed toward saturation: radio load x1.25, PEP load x1.3",
    **{"beams.utilization_scale": 1.25, "beams.pep_scale": 1.3},
)

_register(
    _BASELINE,
    "beam-outage",
    "Two Spanish beams and one UK beam out; survivors absorb their load",
    **{"beams.outages": ("spain-1", "spain-2", "uk-1")},
)

#: LEO-scale MAC/channel/PEP constants shared by every LEO preset (the
#: ``leo`` values from PR 4, unchanged so its digest stays put).
_LEO_STACK_OVERRIDES: Dict[str, Any] = {
    "geometry.orbit": "leo",
    "mac.tdma_frame_s": 0.002,
    "mac.aloha_slot_s": 0.0005,
    "mac.reservation_rtt_s": 0.008,
    "mac.base_processing_s": 0.004,
    "mac.terminal_median_s": 0.010,
    "mac.stack_jitter_median_s": 0.006,
    "channel.arq_rtt_s": 0.012,
    "pep.setup_scale_s": 0.012,
}

_register(
    _BASELINE,
    "leo",
    "A 550 km LEO shell with tight MAC framing (the Starlink counterpoint)",
    **_LEO_STACK_OVERRIDES,
)

_register(
    _BASELINE,
    "heavy-growth",
    "Subscriber growth ahead of capacity: +50% customers, busier beams, "
    "premium-plan shift",
    **{
        "population.n_customers": 900,
        "workload.flow_scale": 1.3,
        "beams.utilization_scale": 1.12,
        "beams.pep_scale": 1.15,
        "plans.europe_mix.sat-100": 0.45,
        "plans.africa_mix.sat-30": 0.45,
    },
)

_register(
    _BASELINE,
    "leo-starlink",
    "The 550 km shell in orbital mode: per-epoch satellite selection, "
    "15 s reconfiguration handovers, latitude-dependent elevation",
    **{
        **_LEO_STACK_OVERRIDES,
        "constellation.mode": "orbital",
    },
)

_register(
    _BASELINE,
    "video-streaming",
    "Session-structured ABR video: per-session QoE (rebuffer ratio, "
    "resolution level, switches) on unshaped plans",
    **{"traffic.qoe.enabled": True},
)

_register(
    _BASELINE,
    "shaped-vs-unshaped",
    "The video-streaming workload under a 4 Mb/s operator video shaper "
    "(compare with: repro scorecard --scenario video-streaming "
    "--compare shaped-vs-unshaped)",
    **{"traffic.qoe.enabled": True, "traffic.qoe.shape_bps": 4e6},
)

_register(
    _BASELINE,
    "multi-orbit",
    "Two orbital shells (550 km + 1150 km) serving epochs weighted by "
    "satellite count",
    **{
        **_LEO_STACK_OVERRIDES,
        "constellation.mode": "orbital",
        "constellation.altitudes_km": (550.0, 1150.0),
        "constellation.satellites_per_shell": (1584, 720),
    },
)


def scenario_names() -> List[str]:
    """Registered scenario names, registration order."""
    return list(_REGISTRY)


def get_scenario(name: str) -> Scenario:
    """A registered scenario by name (raises :class:`ScenarioError`)."""
    if name not in _REGISTRY:
        raise ScenarioError(
            "scenario",
            f"unknown scenario {name!r} (known: {', '.join(_REGISTRY)})",
        )
    return _REGISTRY[name]


def resolve_scenario(name_or_path: str) -> Scenario:
    """A scenario by registry name, else by file path (TOML/JSON)."""
    if name_or_path in _REGISTRY:
        return _REGISTRY[name_or_path]
    path = Path(name_or_path)
    if path.suffix.lower() in (".toml", ".json") or path.exists():
        return load_scenario(path)
    raise ScenarioError(
        "scenario",
        f"{name_or_path!r} is neither a registered scenario "
        f"(known: {', '.join(_REGISTRY)}) nor a .toml/.json file",
    )
