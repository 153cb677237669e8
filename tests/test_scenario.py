"""Tests for the declarative scenario tree (repro.scenario).

Covers the ISSUE-4 satellite checklist: TOML → Scenario → digest stable
across field order, --set override precedence over file values, unknown
keys / out-of-range values raising path-qualified ScenarioErrors, and
the baseline-geo digest equalling the legacy WorkloadConfig cache-key
mapping — plus the byte-identity and threading guarantees the tentpole
rests on.
"""

import dataclasses
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest

from repro.cache import capture_key, config_cache_key, stream_capture_key
from repro.scenario import (
    Scenario,
    ScenarioError,
    get_scenario,
    load_scenario,
    resolve_scenario,
    scenario_names,
)
from repro.traffic.workload import WorkloadConfig, WorkloadGenerator


# --- registry ---------------------------------------------------------------


def test_registry_names_and_lookup():
    names = scenario_names()
    assert names[0] == "baseline-geo"
    for expected in ("congested-beam", "beam-outage", "leo", "heavy-growth"):
        assert expected in names
    for name in names:
        scenario = get_scenario(name)
        assert scenario.name == name
        assert scenario.description
    with pytest.raises(ScenarioError, match="unknown scenario"):
        get_scenario("not-a-scenario")


def test_registry_digests_are_distinct():
    digests = [get_scenario(name).digest() for name in scenario_names()]
    assert len(set(digests)) == len(digests)


def test_only_baseline_has_baseline_models():
    for name in scenario_names():
        scenario = get_scenario(name)
        assert scenario.is_baseline_models() == (name == "baseline-geo")


# --- digest / legacy cache-key mapping --------------------------------------


def test_baseline_digest_equals_legacy_workload_cache_key():
    base = get_scenario("baseline-geo")
    assert base.digest() == config_cache_key(base.workload_config())


def test_baseline_workload_config_matches_cli_defaults():
    config = get_scenario("baseline-geo").workload_config()
    assert config == WorkloadConfig(n_customers=600, days=5, seed=2022)


def test_capture_key_duck_types_scenarios_and_configs():
    base = get_scenario("baseline-geo")
    assert capture_key(base) == base.digest()
    assert capture_key(base.workload_config()) == base.digest()
    leo = get_scenario("leo")
    assert capture_key(leo) == leo.digest() != capture_key(leo.workload_config())


def test_stream_capture_key_layers_window_days():
    base = get_scenario("baseline-geo")
    legacy = stream_capture_key(base.workload_config(), 2)
    assert stream_capture_key(base, 2) == legacy
    assert stream_capture_key(base, 1) != legacy


def test_digest_ignores_execution_and_qos():
    base = get_scenario("baseline-geo")
    assert base.with_overrides({"execution.workers": 8}).digest() == base.digest()
    assert base.with_overrides({"qos.duration_s": 5.0}).digest() == base.digest()
    leo = get_scenario("leo")
    assert leo.with_overrides({"execution.workers": 8}).digest() == leo.digest()
    assert leo.with_overrides({"qos.duration_s": 5.0}).digest() == leo.digest()


def test_digest_tracks_content_changes():
    base = get_scenario("baseline-geo")
    assert base.with_overrides({"workload.seed": 1}).digest() != base.digest()
    assert (
        base.with_overrides({"mac.tdma_frame_s": 0.050}).digest() != base.digest()
    )


# --- loader: TOML/JSON round trips ------------------------------------------


TOML_A = """
name = "t"

[workload]
seed = 5
days = 2

[beams]
utilization_scale = 1.2

[population]
n_customers = 50
"""

# same content, different section and key order
TOML_B = """
[population]
n_customers = 50

[beams]
utilization_scale = 1.2

[workload]
days = 2
seed = 5

name = "t"
"""


def test_toml_digest_stable_across_field_order(tmp_path):
    path_a = tmp_path / "a.toml"
    path_a.write_text(TOML_A)
    path_b = tmp_path / "b.toml"
    # TOML requires top-level keys before tables; rebuild B accordingly
    path_b.write_text('name = "t"\n' + TOML_B.replace('name = "t"\n', ""))
    s_a, s_b = load_scenario(path_a), load_scenario(path_b)
    assert s_a == s_b
    assert s_a.digest() == s_b.digest()


def test_plan_mix_order_never_changes_digest_or_draws(tmp_path):
    forward = tmp_path / "f.toml"
    forward.write_text(
        "[plans.europe_mix]\n'sat-30' = 0.3\n'sat-50' = 0.35\n'sat-100' = 0.35\n"
    )
    backward = tmp_path / "b.toml"
    backward.write_text(
        "[plans.europe_mix]\n'sat-100' = 0.35\n'sat-50' = 0.35\n'sat-30' = 0.3\n"
    )
    s_f, s_b = load_scenario(forward), load_scenario(backward)
    assert list(s_f.plans.europe_mix) == list(s_b.plans.europe_mix)
    assert s_f.digest() == s_b.digest()
    # listing the default mix explicitly IS the baseline
    assert s_f.is_baseline_models()


def test_json_round_trip(tmp_path):
    import json

    original = get_scenario("congested-beam")
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(original.to_mapping()))
    loaded = load_scenario(path)
    assert loaded == original
    assert loaded.digest() == original.digest()


def test_from_mapping_to_mapping_inverse():
    for name in scenario_names():
        scenario = get_scenario(name)
        assert Scenario.from_mapping(scenario.to_mapping()) == scenario


def test_load_scenario_rejects_bad_files(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.toml")
    bad = tmp_path / "bad.toml"
    bad.write_text("[[[")
    with pytest.raises(ScenarioError, match="invalid TOML"):
        load_scenario(bad)
    txt = tmp_path / "scen.yaml"
    txt.write_text("a: 1")
    with pytest.raises(ScenarioError, match="unsupported"):
        load_scenario(txt)


def test_resolve_scenario_name_then_path(tmp_path):
    assert resolve_scenario("leo") is get_scenario("leo")
    path = tmp_path / "s.toml"
    path.write_text("[workload]\nseed = 9\n")
    assert resolve_scenario(str(path)).workload.seed == 9
    with pytest.raises(ScenarioError, match="neither a registered scenario"):
        resolve_scenario("what-is-this")


# --- overrides --------------------------------------------------------------


def test_set_overrides_beat_file_values(tmp_path):
    path = tmp_path / "s.toml"
    path.write_text("[beams]\nutilization_scale = 1.2\n\n[workload]\nseed = 5\n")
    loaded = load_scenario(path)
    overridden = loaded.with_overrides({"beams.utilization_scale": "1.5"})
    assert loaded.beams.utilization_scale == 1.2
    assert overridden.beams.utilization_scale == 1.5
    assert overridden.workload.seed == 5  # untouched values survive


def test_overrides_parse_json_literals():
    base = get_scenario("baseline-geo")
    assert base.with_overrides({"execution.compress": "false"}).execution.compress is False
    assert base.with_overrides({"workload.days": "3"}).workload.days == 3
    assert base.with_overrides(
        {"population.countries": '["Spain", "Congo"]'}
    ).population.countries == ("Spain", "Congo")
    assert base.with_overrides({"name": "renamed"}).name == "renamed"
    assert base.with_overrides({"qos.video_shape_bps": "null"}).qos.video_shape_bps is None


def test_overrides_reach_nested_plan_mixes():
    base = get_scenario("baseline-geo")
    shifted = base.with_overrides({"plans.europe_mix.sat-100": "0.5"})
    assert shifted.plans.europe_mix["sat-100"] == 0.5
    assert base.plans.europe_mix["sat-100"] == 0.35  # no aliasing back


def test_overrides_do_not_mutate_the_source_scenario():
    base = get_scenario("baseline-geo")
    before = base.to_mapping()
    base.with_overrides(
        {"plans.africa_mix.sat-30": "0.9", "beams.outages": '["spain-1"]'}
    )
    assert base.to_mapping() == before


def test_override_unknown_paths_raise():
    base = get_scenario("baseline-geo")
    with pytest.raises(ScenarioError, match="unknown --set path"):
        base.with_overrides({"nosuch.field": "1"})
    with pytest.raises(ScenarioError, match="beams.nope"):
        base.with_overrides({"beams.nope": "1"})
    with pytest.raises(ScenarioError, match="malformed"):
        base.with_overrides({"beams..x": "1"})


# --- validation: path-qualified errors --------------------------------------


@pytest.mark.parametrize(
    "override, path_fragment",
    [
        ({"beams.utilization_scale": "0"}, "beams.utilization_scale"),
        ({"beams.load_cap": "1.5"}, "beams.load_cap"),
        ({"beams.outages": '["mars-1"]'}, "beams.outages"),
        ({"geometry.orbit": '"meo"'}, "geometry.orbit"),
        ({"geometry.leo_altitude_km": "50"}, "geometry.leo_altitude_km"),
        ({"mac.tdma_frame_s": "-1"}, "mac.tdma_frame_s"),
        ({"mac.contention_fraction": "1.5"}, "mac.contention_fraction"),
        ({"channel.floor_probability": "1.0"}, "channel.floor_probability"),
        ({"pep.max_load_ratio": "0"}, "pep.max_load_ratio"),
        ({"qos.link_rate_bps": "0"}, "qos.link_rate_bps"),
        ({"plans.europe_mix.sat-100": "-0.5"}, "plans.europe_mix.sat-100"),
        ({"plans.europe_mix.sat-999": "0.5"}, "plans.europe_mix.sat-999"),
        ({"population.n_customers": "0"}, "population.n_customers"),
        ({"population.countries": '["Narnia"]'}, "population.countries"),
        ({"workload.days": "0"}, "workload.days"),
        ({"workload.flow_scale": "0"}, "workload.flow_scale"),
        ({"stream.window_days": "0"}, "stream.window_days"),
        ({"execution.workers": "-1"}, "execution.workers"),
    ],
)
def test_out_of_range_values_raise_path_qualified(override, path_fragment):
    base = get_scenario("baseline-geo")
    with pytest.raises(ScenarioError) as excinfo:
        base.with_overrides(override)
    assert path_fragment in str(excinfo.value)
    assert excinfo.value.path.startswith(path_fragment.split(".")[0])


def test_unknown_keys_raise_path_qualified():
    with pytest.raises(ScenarioError, match=r"mac\.warp_factor"):
        Scenario.from_mapping({"mac": {"warp_factor": 9}})
    with pytest.raises(ScenarioError, match="unknown section"):
        Scenario.from_mapping({"engines": {}})


def test_type_errors_are_path_qualified():
    with pytest.raises(ScenarioError, match=r"workload\.days"):
        Scenario.from_mapping({"workload": {"days": 1.5}})
    with pytest.raises(ScenarioError, match=r"workload\.include_dns"):
        Scenario.from_mapping({"workload": {"include_dns": "yes"}})
    with pytest.raises(ScenarioError, match=r"beams\.outages"):
        Scenario.from_mapping({"beams": {"outages": "spain-1"}})
    with pytest.raises(ScenarioError, match=r"mac\.tdma_frame_s"):
        Scenario.from_mapping({"mac": {"tdma_frame_s": "fast"}})


def test_cannot_outage_every_beam_of_a_country():
    base = get_scenario("baseline-geo")
    ireland = [
        b.beam_id for b in base.build_beam_map().beams if b.country == "Ireland"
    ]
    with pytest.raises(ScenarioError, match="Ireland"):
        base.with_overrides({"beams.outages": str(ireland).replace("'", '"')})


# --- constellation section --------------------------------------------------


def test_constellation_unknown_keys_raise_path_qualified():
    with pytest.raises(ScenarioError, match=r"constellation\.warp_drive"):
        Scenario.from_mapping({"constellation": {"warp_drive": True}})
    with pytest.raises(ScenarioError, match=r"constellation\.altitude_km"):
        get_scenario("baseline-geo").with_overrides(
            {"constellation.altitude_km": "550"}
        )


@pytest.mark.parametrize(
    "override, path_fragment",
    [
        ({"constellation.mode": "elliptical"}, "constellation.mode"),
        ({"constellation.altitudes_km": "[100.0]"}, "constellation.altitudes_km"),
        ({"constellation.min_elevation_deg": "95"}, "constellation.min_elevation_deg"),
        ({"constellation.reconfiguration_s": "0"}, "constellation.reconfiguration_s"),
        ({"constellation.handover_window_s": "20"}, "constellation.handover_window_s"),
        ({"constellation.handover_penalty_ms": "-1"}, "constellation.handover_penalty_ms"),
    ],
)
def test_constellation_out_of_range_values_raise(override, path_fragment):
    with pytest.raises(ScenarioError) as excinfo:
        get_scenario("baseline-geo").with_overrides(override)
    assert path_fragment in str(excinfo.value)


def test_default_constellation_is_digest_neutral():
    base = get_scenario("baseline-geo")
    same = base.with_overrides({"constellation.reconfiguration_s": "15.0"})
    assert same.digest() == base.digest()
    assert "constellation" not in base.content_payload()
    assert "constellation" not in base.models_payload()


def test_orbital_constellation_changes_digest():
    base = get_scenario("baseline-geo")
    orbital = base.with_overrides({"constellation.mode": "orbital"})
    assert orbital.digest() != base.digest()
    assert "constellation" in orbital.content_payload()
    assert get_scenario("leo-starlink").digest() != get_scenario("leo").digest()
    assert get_scenario("multi-orbit").digest() != get_scenario("leo-starlink").digest()


def test_build_delay_source_types():
    from repro.satcom.delaysource import (
        ConstellationDelaySource,
        StaticDelaySource,
    )

    static = get_scenario("baseline-geo").build_delay_source()
    assert isinstance(static, StaticDelaySource)
    assert not static.is_time_varying

    starlink = get_scenario("leo-starlink").build_delay_source()
    assert isinstance(starlink, ConstellationDelaySource)
    assert starlink.is_time_varying
    assert starlink.handover_penalty_s == pytest.approx(0.008)
    assert len(starlink.constellation.shells) == 1

    multi = get_scenario("multi-orbit").build_delay_source()
    assert len(multi.constellation.shells) == 2
    assert multi.constellation.satellites_per_shell == (1584, 720)


# --- builders ---------------------------------------------------------------


def test_baseline_build_matches_plain_defaults():
    from repro.satcom.delay_model import SatelliteRttModel

    assert get_scenario("baseline-geo").build_rtt_model() == SatelliteRttModel()


def test_beam_outage_redistributes_load():
    base_map = get_scenario("baseline-geo").build_beam_map()
    outage = get_scenario("beam-outage")
    outage_map = outage.build_beam_map()
    gone = set(outage.beams.outages)
    assert gone & {b.beam_id for b in base_map.beams} == gone
    assert not gone & {b.beam_id for b in outage_map.beams}
    base_spain = {b.beam_id: b for b in base_map.beams if b.country == "Spain"}
    out_spain = [b for b in outage_map.beams if b.country == "Spain"]
    assert len(out_spain) == len(base_spain) - 2
    for beam in out_spain:
        assert beam.peak_utilization > base_spain[beam.beam_id].peak_utilization


def test_leo_geometry_floor_is_far_below_geo():
    leo_model = get_scenario("leo").build_rtt_model()
    geo_model = get_scenario("baseline-geo").build_rtt_model()
    from repro.internet.geo import COUNTRIES

    spain = COUNTRIES["Spain"]
    assert leo_model.geometry.propagation_rtt_s(spain) < 0.05
    assert geo_model.geometry.propagation_rtt_s(spain) > 0.4


def test_scenario_generation_is_byte_identical_to_legacy(small_scenario_pair):
    frame_scenario, frame_legacy = small_scenario_pair
    assert len(frame_scenario) == len(frame_legacy)
    for attr in ("bytes_down", "bytes_up", "sat_rtt_ms", "hour_utc", "country_idx"):
        a = getattr(frame_scenario, attr)
        b = getattr(frame_legacy, attr)
        if a.dtype.kind == "f":
            nan = np.isnan(a)
            assert np.array_equal(np.isnan(b), nan)
            assert np.array_equal(a[~nan], b[~nan]), attr
        else:
            assert np.array_equal(a, b), attr


@pytest.fixture(scope="module")
def small_scenario_pair():
    scenario = get_scenario("baseline-geo").with_overrides(
        {"population.n_customers": 60, "workload.days": 1, "workload.seed": 3}
    )
    frame_scenario = scenario.build_generator().generate()
    frame_legacy = WorkloadGenerator(
        WorkloadConfig(n_customers=60, days=1, seed=3)
    ).generate()
    return frame_scenario, frame_legacy


def test_variant_scenarios_shift_fig8_inputs():
    def median_rtt(name):
        scenario = get_scenario(name).with_overrides(
            {"population.n_customers": 60, "workload.days": 1, "workload.seed": 3}
        )
        frame = scenario.build_generator().generate()
        return float(np.nanmedian(frame.sat_rtt_ms))

    baseline = median_rtt("baseline-geo")
    assert median_rtt("congested-beam") > baseline * 1.05
    assert median_rtt("leo") < baseline * 0.25


def test_heavy_growth_shifts_plan_mix():
    scenario = get_scenario("heavy-growth").with_overrides(
        {"population.n_customers": 300, "workload.seed": 3}
    )
    base = get_scenario("baseline-geo").with_overrides(
        {"population.n_customers": 300, "workload.seed": 3}
    )

    def premium_share(s):
        gen = s.build_generator()
        subs = gen.population.subscribers
        europe = [x for x in subs if x.country in
                  ("Ireland", "Spain", "UK", "Germany", "France", "Italy",
                   "Portugal", "Greece", "Poland")]
        return sum(1 for x in europe if x.plan_name == "sat-100") / len(europe)

    assert premium_share(scenario) > premium_share(base)


def test_stream_config_carries_scenario():
    scenario = get_scenario("leo").with_overrides(
        {"population.n_customers": 40, "workload.days": 1}
    )
    config = scenario.stream_config()
    assert config.scenario is scenario
    assert config.capture_key() == stream_capture_key(scenario, 1)
    generator = config.build_generator()
    assert type(generator.rtt_model.geometry).__name__ == "LeoGeometryAdapter"


def test_generate_flow_dataset_scenario_is_exclusive():
    from repro.pipeline import generate_flow_dataset

    with pytest.raises(ValueError, match="mutually exclusive"):
        generate_flow_dataset(
            config=WorkloadConfig(n_customers=10, days=1),
            scenario=get_scenario("baseline-geo"),
        )


def test_generate_flow_dataset_caches_by_digest(tmp_path):
    from repro.cache import CaptureCache
    from repro.pipeline import generate_flow_dataset

    scenario = get_scenario("congested-beam").with_overrides(
        {"population.n_customers": 40, "workload.days": 1, "workload.seed": 3}
    )
    cache = CaptureCache(tmp_path)
    frame, _ = generate_flow_dataset(scenario=scenario, cache=cache)
    assert cache.path_for(scenario).exists()
    assert scenario.digest() in cache.path_for(scenario).name
    again, _ = generate_flow_dataset(scenario=scenario, cache=cache)
    assert len(again) == len(frame)


# --- cache dir resolution (satellite: XDG_CACHE_HOME) -----------------------


def test_default_cache_dir_precedence(monkeypatch, tmp_path):
    from repro.cache import default_cache_dir

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    assert default_cache_dir().parts[-2:] == (".cache", "repro")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "explicit"))
    assert default_cache_dir() == tmp_path / "explicit"


# --- CLI integration --------------------------------------------------------


def test_cli_scenarios_listing(capsys):
    from repro.cli import main

    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out
        assert get_scenario(name).digest() in out
    assert main(["scenarios", "--names"]) == 0
    assert capsys.readouterr().out.split() == scenario_names()


def test_cli_generate_scenario_matches_legacy_flags(tmp_path, capsys):
    from repro.analysis.dataset import FlowFrame
    from repro.cli import main

    legacy = tmp_path / "legacy.npz"
    scen = tmp_path / "scen.npz"
    assert main(["generate", "--customers", "60", "--days", "1", "--seed", "3",
                 "--out", str(legacy)]) == 0
    assert main(["generate", "--scenario", "baseline-geo", "--customers", "60",
                 "--days", "1", "--seed", "3", "--out", str(scen)]) == 0
    capsys.readouterr()
    a = FlowFrame.load_npz(legacy)
    b = FlowFrame.load_npz(scen)
    assert len(a) == len(b)
    assert np.array_equal(a.bytes_down, b.bytes_down)


def test_cli_set_overrides_and_flag_precedence(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "c.npz"
    # explicit flag beats --set for the same knob
    assert main(["generate", "--set", "workload.days=4", "--days", "1",
                 "--customers", "50", "--seed", "3", "--out", str(out)]) == 0
    assert "1 days" in capsys.readouterr().out


def test_cli_rejects_scenario_errors_with_exit_2(tmp_path, capsys):
    from repro.cli import main

    assert main(["generate", "--scenario", "missing-one",
                 "--out", str(tmp_path / "x.npz")]) == 2
    assert "scenario error" in capsys.readouterr().err
    assert main(["generate", "--set", "bogus", "--out", str(tmp_path / "x.npz")]) == 2
    assert "--set expects KEY=VALUE" in capsys.readouterr().err
    assert main(["generate", "--set", "beams.utilization_scale=99",
                 "--out", str(tmp_path / "x.npz")]) == 2
    assert "beams.utilization_scale" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "stream"])
@pytest.mark.parametrize("flag", ["--customers", "--days"])
def test_cli_rejects_non_positive_counts(command, flag, capsys):
    from repro.cli import main

    argv = [command, flag, "0"]
    if command == "stream":
        argv += ["--dir", "unused"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err


# --- traffic section --------------------------------------------------------


BASELINE_GEO_DIGEST = "100b2183167d74dcb6275038"


def test_default_traffic_is_digest_neutral():
    """The all-defaults traffic section contributes nothing to the
    content payload — pre-refactor digests stay pinned."""
    assert get_scenario("baseline-geo").digest() == BASELINE_GEO_DIGEST
    assert "traffic" not in Scenario().content_payload()


def test_traffic_overrides_change_digest():
    base = get_scenario("baseline-geo")
    sized = base.with_overrides(
        {"traffic.size_overrides.Netflix": "pareto(500000.0,1.3)"}
    )
    weighted = base.with_overrides({"traffic.category_weights.video": 2.0})
    qoe = base.with_overrides({"traffic.qoe.enabled": True})
    digests = {base.digest(), sized.digest(), weighted.digest(), qoe.digest()}
    assert len(digests) == 4
    assert "traffic" in qoe.content_payload()


def test_video_presets_registered_with_distinct_digests():
    video = get_scenario("video-streaming")
    shaped = get_scenario("shaped-vs-unshaped")
    assert video.traffic.qoe.enabled
    assert shaped.traffic.qoe.shape_bps == 4e6
    assert video.digest() != shaped.digest()
    # --set spelling of the preset lands on the same digest
    assert (
        get_scenario("baseline-geo")
        .with_overrides({"traffic.qoe.enabled": "true"})
        .digest()
        == video.digest()
    )


@pytest.mark.parametrize(
    "override, path_fragment",
    [
        ({"traffic.category_weights.gaming": 2.0}, "traffic.category_weights"),
        ({"traffic.category_weights.video": -1.0}, "traffic.category_weights"),
        ({"traffic.size_overrides.NotAService": "lognormal(1.0,1.0)"}, "traffic.size_overrides"),
        ({"traffic.size_overrides.Netflix": "gaussian(0,1)"}, "traffic.size_overrides"),
        ({"traffic.flows_overrides.Netflix": "lognormal(-1,1)"}, "traffic.flows_overrides"),
        ({"traffic.qoe.sessions_per_day": -0.5}, "traffic.qoe"),
        ({"traffic.qoe.chunk_s": 0}, "traffic.qoe"),
        ({"traffic.qoe.max_buffer_s": 1.0}, "traffic.qoe"),
        ({"traffic.qoe.bitrate_ladder_mbps": [4.0, 2.0]}, "traffic.qoe"),
        ({"traffic.qoe.duration": "nope(1)"}, "traffic.qoe"),
        ({"traffic.qoe.shape_bps": 0}, "traffic.qoe"),
        ({"traffic.bogus_knob": 1}, "traffic"),
    ],
)
def test_traffic_validation_errors_are_path_qualified(override, path_fragment):
    with pytest.raises(ScenarioError) as excinfo:
        get_scenario("baseline-geo").with_overrides(override)
    assert path_fragment in str(excinfo.value)


def test_build_traffic_model_resolves_specs():
    from repro.traffic.distributions import Mixture, Pareto
    from repro.traffic.services import ServiceCategory

    scenario = get_scenario("baseline-geo").with_overrides(
        {
            "traffic.size_overrides.Netflix": "pareto(500000.0,1.3)",
            "traffic.category_weights.video": 1.5,
            "traffic.qoe.enabled": True,
            "traffic.qoe.duration": "lognormal(600.0,0.5)",
        }
    )
    model = scenario.build_traffic_model()
    assert model.size_dists["Netflix"] == Pareto(500000.0, 1.3)
    assert model.category_weights[ServiceCategory.VIDEO] == 1.5
    assert isinstance(model.day_factor, Mixture)
    assert model.qoe is not None
    assert model.qoe.duration.median == 600.0
    # defaults resolve to no qoe and no overrides
    plain = get_scenario("baseline-geo").build_traffic_model()
    assert plain.qoe is None
    assert not plain.size_dists and not plain.flows_dists


def test_traffic_section_round_trips_through_toml(tmp_path):
    path = tmp_path / "video.toml"
    path.write_text(
        """
name = "video-toml"
description = "qoe via file"

[traffic]
category_weights = {video = 1.5}

[traffic.qoe]
enabled = true
shape_bps = 4e6
"""
    )
    scenario = load_scenario(path)
    assert scenario.traffic.qoe.enabled
    assert scenario.traffic.qoe.shape_bps == 4e6
    model = scenario.build_traffic_model()
    assert model.qoe.shape_bps == 4e6
    payload = scenario.content_payload()
    assert payload["traffic"]["qoe"]["enabled"] is True



# --- pinned registry digests ------------------------------------------------


#: Every registered scenario's capture identity. A drift re-keys every
#: cached capture: if the sampled output changes on purpose, bump
#: ``repro.cache.CACHE_SALT`` and re-pin here.
REGISTERED_DIGESTS = {
    "baseline-geo": BASELINE_GEO_DIGEST,
    "congested-beam": "729c8d908f4ae015b1fe782b",
    "beam-outage": "57559b1496bf73e4768c50e0",
    "leo": "5acec5a2c4257c4a8b5bcc74",
    "heavy-growth": "11a1f4aa953fc1ab9e444e61",
    "leo-starlink": "79d873dfe46881a4f7e76061",
    "video-streaming": "bd65a08edefa47b2021199ad",
    "shaped-vs-unshaped": "16a82f324619af698ab71fea",
    "multi-orbit": "39707c35a00f2804d465c0e3",
}


def test_registered_digests_are_pinned():
    assert list(REGISTERED_DIGESTS) == scenario_names()
    digests = {name: get_scenario(name).digest() for name in scenario_names()}
    assert digests == REGISTERED_DIGESTS


# --- declared field rules ---------------------------------------------------


#: Numeric fields that take any value.
FREE_NUMERIC_FIELDS = {"qos.seed", "workload.seed", "faults.seed"}


def _leaf_fields(section=None, path=""):
    """``(dotted path, field, type hint, owning section)`` per leaf field."""
    section = Scenario() if section is None else section
    hints = get_type_hints(type(section))
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        dotted = f"{path}.{f.name}" if path else f.name
        if dataclasses.is_dataclass(value):
            yield from _leaf_fields(value, dotted)
        elif path:
            yield dotted, f, hints[f.name], section


def _holds(hint, kind):
    """Whether ``hint`` is ``kind`` or an Optional/tuple/mapping of it."""
    return hint is kind or any(_holds(arg, kind) for arg in get_args(hint))


def _container(hint):
    """``dict``, ``tuple`` or ``None`` (a scalar) for a field's type hint."""
    for candidate in (hint, *get_args(hint)):
        if get_origin(candidate) in (dict, tuple):
            return get_origin(candidate)
    return None


def _placed(dotted, f, hint, item):
    """``(override, error path)`` putting ``item`` where ``f`` holds one value."""
    if _container(hint) is dict:
        key = f"{dotted}.{f.metadata['known'][1][0]}"
        return {key: item}, key
    if _container(hint) is tuple:
        return {dotted: [item]}, dotted
    return {dotted: item}, dotted


def test_every_numeric_field_declares_a_rule():
    undeclared = [
        dotted
        for dotted, f, hint, _ in _leaf_fields()
        if (_holds(hint, int) or _holds(hint, float))
        and not f.metadata.get("bound")
        and dotted not in FREE_NUMERIC_FIELDS
    ]
    assert not undeclared, f"numeric fields without a declared bound: {undeclared}"


def _bound_cases():
    """``(override, error path, bound, accepted)`` at and just past each end."""
    for dotted, f, hint, section in _leaf_fields():
        if not f.metadata.get("ends"):
            continue
        step = 1 if _holds(hint, int) else 1e-3
        low, low_closed, high, high_closed = f.metadata["ends"]
        for end, closed, outward in ((low, low_closed, -step), (high, high_closed, step)):
            if end is None:
                continue
            if isinstance(end, str):  # a sibling field's value
                end = getattr(section, end)
            bound = f.metadata["bound"]
            if closed:
                yield (*_placed(dotted, f, hint, end), bound, True)
            past = end + outward if closed else end
            yield (*_placed(dotted, f, hint, past), bound, False)


BOUND_CASES = list(_bound_cases())


def test_bound_cases_cover_literal_and_sibling_ends():
    paths = {path for _, path, _, _ in BOUND_CASES}
    assert {
        "geometry.leo_typical_elevation_deg",
        "constellation.handover_window_s",
        "traffic.qoe.max_buffer_s",
        "plans.europe_mix.sat-10",
    } <= paths
    assert any(accepted for *_, accepted in BOUND_CASES)


@pytest.mark.parametrize(
    "override, path, bound, accepted",
    BOUND_CASES,
    ids=[str(case[0]) for case in BOUND_CASES],
)
def test_declared_bounds_hold_at_each_end(override, path, bound, accepted):
    if accepted:
        Scenario().with_overrides(override)
        return
    with pytest.raises(ScenarioError) as excinfo:
        Scenario().with_overrides(override)
    assert excinfo.value.path == path
    assert str(excinfo.value) == f"{path}: must be {bound}"


KNOWN_FIELDS = [case for case in _leaf_fields() if case[1].metadata.get("known")]


@pytest.mark.parametrize(
    "dotted, f, hint, section", KNOWN_FIELDS, ids=[k[0] for k in KNOWN_FIELDS]
)
def test_known_fields_reject_unknown_names(dotted, f, hint, section):
    if _container(hint) is dict:
        value = "lognormal(1.0,1.0)" if f.metadata["spec"] else 1.0
        override, path = {f"{dotted}.no-such-name": value}, f"{dotted}.no-such-name"
    else:
        override, path = _placed(dotted, f, hint, "no-such-name")
    with pytest.raises(ScenarioError, match="unknown .*'no-such-name'") as excinfo:
        Scenario().with_overrides(override)
    assert excinfo.value.path == path
