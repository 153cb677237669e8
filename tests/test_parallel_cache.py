"""Determinism of sharded parallel generation and the capture cache.

The contract under test: the generated capture is a pure function of
``WorkloadConfig`` content — worker count never changes a byte, and a
cache hit returns exactly what a fresh generate would have produced
(same values, same dtypes).
"""

import os

import numpy as np
import pytest

from repro.analysis.dataset import _ARRAY_FIELDS, FlowFrame
from repro.cache import CaptureCache, config_cache_key, resolve_cache
from repro.parallel import (
    ShardSpec,
    default_shard_count,
    plan_shards,
    resolve_workers,
    shard_seed,
)
from repro.pipeline import generate_flow_dataset
from repro.traffic.workload import WorkloadConfig, WorkloadGenerator

SMALL = dict(n_customers=60, days=1, seed=31)


def _assert_frames_identical(a: FlowFrame, b: FlowFrame) -> None:
    assert len(a) == len(b)
    for name in _ARRAY_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, f"{name}: {x.dtype} != {y.dtype}"
        nan_ok = x.dtype.kind == "f"
        assert np.array_equal(x, y, equal_nan=nan_ok), f"{name} differs"
    for pool in ("countries", "beams", "services", "domains", "sites", "resolvers"):
        assert getattr(a, pool) == getattr(b, pool), pool


# -- shard planning ---------------------------------------------------------


def test_plan_shards_covers_population_contiguously():
    shards = plan_shards(601, 8)
    assert shards[0].lo == 0
    assert shards[-1].hi == 601
    for prev, cur in zip(shards, shards[1:]):
        assert cur.lo == prev.hi
    sizes = [len(s) for s in shards]
    assert max(sizes) - min(sizes) <= 1


def test_plan_shards_never_exceeds_population():
    shards = plan_shards(3, 8)
    assert len(shards) == 3
    assert all(len(s) == 1 for s in shards)


def test_plan_shards_rejects_empty_population():
    with pytest.raises(ValueError):
        plan_shards(0, 4)


def test_default_shard_count_is_machine_independent():
    assert default_shard_count(600) == 4
    assert default_shard_count(150) == 1
    assert default_shard_count(5000) == 8
    assert default_shard_count(1) == 1


def test_resolve_workers():
    assert resolve_workers(4) == 4
    assert resolve_workers(None) >= 1
    assert resolve_workers(0) >= 1
    with pytest.raises(ValueError):
        resolve_workers(-1)


def test_resolve_workers_accepts_auto_string():
    assert resolve_workers("auto") == resolve_workers(0)
    assert resolve_workers(" AUTO ") == resolve_workers(0)
    with pytest.raises(ValueError):
        resolve_workers("fast")


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="needs sched_getaffinity"
)
def test_auto_workers_respect_cpu_affinity(monkeypatch):
    """'auto' must count the cores this process may *use* (cgroup/
    taskset restrictions), not the machine's — a container pinned to 2
    of 64 cores should fork 2 workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3})
    assert resolve_workers("auto") == 2
    assert resolve_workers(0) == 2
    assert resolve_workers(None) == 2
    # an explicit count is never overridden by affinity
    assert resolve_workers(6) == 6


def test_auto_workers_fall_back_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert resolve_workers("auto") == (os.cpu_count() or 1)


# -- determinism across worker counts --------------------------------------


def test_worker_count_does_not_change_output():
    serial = WorkloadGenerator(
        WorkloadConfig(**SMALL, n_shards=4, n_workers=1)
    ).generate()
    parallel = WorkloadGenerator(
        WorkloadConfig(**SMALL, n_shards=4, n_workers=4)
    ).generate()
    _assert_frames_identical(serial, parallel)


def test_worker_count_does_not_change_output_default_shards():
    serial = WorkloadGenerator(WorkloadConfig(**SMALL, n_workers=1)).generate()
    parallel = WorkloadGenerator(WorkloadConfig(**SMALL, n_workers=4)).generate()
    _assert_frames_identical(serial, parallel)


def test_generate_is_idempotent():
    generator = WorkloadGenerator(WorkloadConfig(**SMALL))
    _assert_frames_identical(generator.generate(), generator.generate())


def test_shard_union_equals_whole():
    """Concatenating every shard's frame reproduces generate()."""
    generator = WorkloadGenerator(WorkloadConfig(**SMALL, n_shards=4))
    whole = generator.generate()
    parts = [
        generator.generate_shard_days(
            s, 0, generator.config.days,
            np.random.default_rng(shard_seed(generator.config.seed, s)),
        )
        for s in generator.shard_plan()
    ]
    merged = FlowFrame.concat([p for p in parts if p is not None])
    _assert_frames_identical(whole, merged)


def test_shard_count_is_part_of_content_identity():
    two = WorkloadGenerator(WorkloadConfig(**SMALL, n_shards=2)).generate()
    four = WorkloadGenerator(WorkloadConfig(**SMALL, n_shards=4)).generate()
    # different RNG stream assignment → different samples...
    n = min(len(two), len(four))
    assert not np.array_equal(two.bytes_down[:n], four.bytes_down[:n])
    # ...which is why n_shards must feed the cache key
    assert config_cache_key(
        WorkloadConfig(**SMALL, n_shards=2)
    ) != config_cache_key(WorkloadConfig(**SMALL, n_shards=4))


# -- capture cache ----------------------------------------------------------


def test_cache_key_ignores_workers_not_content():
    base = WorkloadConfig(**SMALL)
    assert config_cache_key(base) == config_cache_key(
        WorkloadConfig(**SMALL, n_workers=8)
    )
    assert config_cache_key(base) != config_cache_key(
        WorkloadConfig(n_customers=60, days=1, seed=32)
    )


def test_cache_roundtrip_preserves_values_and_dtypes(tmp_path):
    config = WorkloadConfig(**SMALL)
    cache = CaptureCache(tmp_path)
    fresh, _ = generate_flow_dataset(config, cache=cache)
    assert cache.path_for(config).exists()
    hit, _ = generate_flow_dataset(config, cache=cache)
    _assert_frames_identical(fresh, hit)


def test_cache_hit_skips_generation(tmp_path, monkeypatch):
    config = WorkloadConfig(**SMALL)
    cache = CaptureCache(tmp_path)
    generate_flow_dataset(config, cache=cache)

    def boom(self):
        raise AssertionError("cache hit must not regenerate")

    monkeypatch.setattr(WorkloadGenerator, "generate", boom)
    frame, _ = generate_flow_dataset(config, cache=cache)
    assert len(frame) > 0


def test_cache_corrupt_entry_treated_as_miss(tmp_path):
    config = WorkloadConfig(**SMALL)
    cache = CaptureCache(tmp_path)
    path = cache.path_for(config)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"not an npz")
    assert cache.load(config) is None
    assert not path.exists()  # quarantined, not served
    assert cache.quarantine_path(path).exists()
    assert cache.injector.stats.quarantined == 1


def test_cache_truncated_entry_treated_as_miss(tmp_path):
    """A torn write (valid zip magic, missing tail) must never be served."""
    config = WorkloadConfig(**SMALL)
    cache = CaptureCache(tmp_path)
    generate_flow_dataset(config, cache=cache)
    path = cache.path_for(config)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    assert cache.load(config) is None
    assert not path.exists()  # evicted, not left to fail again
    assert cache.quarantine_path(path).exists()


def test_cache_corrupt_entry_repaired_on_next_write(tmp_path):
    config = WorkloadConfig(**SMALL)
    cache = CaptureCache(tmp_path)
    fresh, _ = generate_flow_dataset(config, cache=cache)
    cache.path_for(config).write_bytes(b"garbage")
    regenerated, _ = generate_flow_dataset(config, cache=cache)
    _assert_frames_identical(fresh, regenerated)
    healthy = cache.load(config)  # the miss repopulated a healthy entry
    assert healthy is not None
    _assert_frames_identical(fresh, healthy)


def test_cache_store_publishes_atomically(tmp_path, monkeypatch):
    """Regression for the torn-publish window: a failure mid-store must
    never leave a partial entry under the published name (the write goes
    temp → flush → fsync → ``os.replace``), and no temp litter either."""
    import repro.faults as faults_mod

    config = WorkloadConfig(**SMALL)
    cache = CaptureCache(tmp_path)
    frame = WorkloadGenerator(config).generate()

    real_replace = os.replace

    def exploding_replace(src, dst):
        raise OSError("simulated crash at publish")

    monkeypatch.setattr(faults_mod.os, "replace", exploding_replace)
    with pytest.raises(OSError, match="simulated crash"):
        cache.store(config, frame)
    monkeypatch.setattr(faults_mod.os, "replace", real_replace)
    assert not cache.path_for(config).exists()  # nothing half-published
    assert not list(tmp_path.glob("*.tmp"))  # no temp litter
    assert cache.load(config) is None
    cache.store(config, frame)  # the directory is still healthy
    _assert_frames_identical(frame, cache.load(config))


def test_cache_store_retries_injected_faults(tmp_path):
    """Transient injected write/fsync/rename errors are absorbed by the
    retry loop and the stored entry round-trips byte-identically."""
    from repro.faults import FaultInjector, FaultPlan, IoFault

    plan = FaultPlan(
        io_faults=(
            IoFault(op="cache.store", stage="write", fail_times=1),
            IoFault(op="cache.store", stage="fsync", fail_times=1),
            IoFault(op="cache.store", stage="rename", fail_times=1),
        ),
        backoff_base_s=0.0,
    )
    config = WorkloadConfig(**SMALL)
    cache = CaptureCache(tmp_path, injector=FaultInjector(plan, sleep=lambda _s: None))
    frame = WorkloadGenerator(config).generate()
    cache.store(config, frame)
    assert cache.injector.stats.injected == 3
    assert cache.injector.stats.retries == 3
    assert cache.injector.stats.gave_up == 0
    assert not list(tmp_path.glob("*.tmp"))
    _assert_frames_identical(frame, CaptureCache(tmp_path).load(config))


def test_cache_torn_store_quarantined_then_regenerated(tmp_path):
    """A truncate fault tears the published entry; the next load
    quarantines it and the pipeline regenerates the same capture."""
    from repro.faults import FaultInjector, FaultPlan, TruncateFault

    plan = FaultPlan(truncate_faults=(TruncateFault(op="cache.store", fraction=0.3),))
    config = WorkloadConfig(**SMALL)
    torn_cache = CaptureCache(tmp_path, injector=FaultInjector(plan))
    fresh, _ = generate_flow_dataset(config, cache=torn_cache)
    assert torn_cache.injector.stats.truncated == 1
    healthy_cache = CaptureCache(tmp_path)
    assert healthy_cache.load(config) is None  # torn entry quarantined
    assert healthy_cache.injector.stats.quarantined == 1
    regenerated, _ = generate_flow_dataset(config, cache=healthy_cache)
    _assert_frames_identical(fresh, regenerated)
    _assert_frames_identical(fresh, healthy_cache.load(config))


def test_cache_bypassed_for_custom_models(tmp_path):
    from repro.satcom.delay_model import SatelliteRttModel

    config = WorkloadConfig(**SMALL)
    cache = CaptureCache(tmp_path)
    generate_flow_dataset(config, rtt_model=SatelliteRttModel(), cache=cache)
    assert cache.load(config) is None  # nothing was stored


def test_cache_clear(tmp_path):
    config = WorkloadConfig(**SMALL)
    cache = CaptureCache(tmp_path)
    generate_flow_dataset(config, cache=cache)
    assert cache.clear() == 1
    assert cache.load(config) is None


def test_resolve_cache_forms(tmp_path):
    assert resolve_cache(None) is None
    assert resolve_cache(False) is None
    assert resolve_cache(tmp_path).directory == tmp_path
    cache = CaptureCache(tmp_path)
    assert resolve_cache(cache) is cache


# -- pool-aware concat ------------------------------------------------------


def test_concat_rejects_mismatched_secondary_pools():
    frame = WorkloadGenerator(WorkloadConfig(**SMALL)).generate()
    for pool in ("beams", "sites", "resolvers"):
        mutated = FlowFrame(
            **{
                name: getattr(frame, name)
                for name in (
                    "countries",
                    "beams",
                    "services",
                    "domains",
                    "sites",
                    "resolvers",
                )
            },
            **{name: getattr(frame, name) for name in _ARRAY_FIELDS},
        )
        setattr(mutated, pool, list(getattr(frame, pool)) + ["bogus"])
        with pytest.raises(ValueError, match=pool):
            FlowFrame.concat([frame, mutated])


def test_customer_id_dtype_enforced():
    frame = WorkloadGenerator(WorkloadConfig(**SMALL)).generate()
    assert frame.customer_id.dtype == np.int32
    widened = frame.filter(np.ones(len(frame), dtype=bool))
    widened.customer_id = widened.customer_id.astype(np.int64)
    rebuilt = FlowFrame.concat([widened])
    assert rebuilt.customer_id.dtype == np.int32
