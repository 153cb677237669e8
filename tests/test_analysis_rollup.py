"""Tests for the rollup sketches, the Section 3.1 aggregated views.

The paper's second step aggregates flows by protocol, service, hour,
country and customer; :class:`~repro.stream.StreamRollup` is that view
here. The first tests fold the shared test frame once and check the
views against direct frame queries; the rest pin the mergeability
property and the declared bank table.
"""

import numpy as np
import pytest

from repro.analysis.dataset import _ARRAY_FIELDS
from repro.flowmeter.records import L7Protocol, L7_ORDER
from repro.parallel import ShardWorkerPool
from repro.stream import HistFamily, StreamRollup, WindowedProducer
from repro.traffic.workload import WorkloadConfig, WorkloadGenerator


@pytest.fixture(scope="module")
def rollup(small_frame):
    return StreamRollup.for_frame(small_frame).update(small_frame)


def test_rollup_much_smaller_than_flows(small_frame, rollup):
    """The paper: aggregation reduces data by orders of magnitude."""
    state = sum(array.nbytes for array in rollup._state_arrays().values())
    flows = sum(getattr(small_frame, name).nbytes for name in _ARRAY_FIELDS)
    assert flows / state > 10.0


def test_totals_preserved(small_frame, rollup):
    assert rollup.volume_c().sum() == pytest.approx(
        small_frame.bytes_total().sum(), rel=1e-9
    )
    assert rollup.flows_total == len(small_frame)
    assert rollup.flows_c.sum() == len(small_frame)
    assert rollup.bytes_up_c.sum() == pytest.approx(
        small_frame.bytes_up.sum(), rel=1e-9
    )


def test_country_volume_matches_frame(small_frame, rollup):
    for country in ("Congo", "Spain"):
        direct = small_frame.bytes_total()[small_frame.country_mask(country)].sum()
        got = rollup.volume_c()[rollup.country_row(country)]
        assert got == pytest.approx(direct, rel=1e-9)


def test_protocol_filter(small_frame, rollup):
    https = L7_ORDER.index(L7Protocol.HTTPS)
    direct = small_frame.bytes_total()[small_frame.l7_idx == https].sum()
    assert rollup.volume_by_l7()[https] == pytest.approx(direct, rel=1e-9)


def test_service_filter(small_frame, rollup):
    """Service slot 0 is unattributed, so service ``i`` sits at ``i + 1``."""
    idx = small_frame.services.index("Netflix")
    direct = small_frame.bytes_total()[small_frame.service_true_idx == idx].sum()
    assert direct > 0
    assert rollup.vol_csh[:, idx + 1, :].sum() == pytest.approx(direct, rel=1e-9)


def test_hourly_series_matches_frame(small_frame, rollup):
    row = rollup.country_row("Congo")
    mask = small_frame.country_mask("Congo")
    hours = small_frame.hour_utc[mask].astype(int) % 24
    direct = np.zeros(24)
    np.add.at(direct, hours, small_frame.bytes_total()[mask])
    assert np.allclose(rollup.vol_clh[row].sum(axis=0), direct)
    per_day = sum(matrix[row] for matrix in rollup.vol_day.values())
    assert np.allclose(per_day, direct)


def test_distinct_customers_bounded(small_frame, rollup):
    """Distinct customers never exceed flows, and per country they are
    exactly the frame's distinct customer ids."""
    assert np.all(rollup.customers_c() <= rollup.flows_c)
    for country in ("Congo", "Spain"):
        ids = np.unique(small_frame.customer_id[small_frame.country_mask(country)])
        assert rollup.customers_of(country) == ids.tolist()


def test_hour_and_day_ranges(rollup, small_frame):
    assert rollup.vol_clh.shape[-1] == 24
    assert min(rollup.vol_day) == small_frame.day.min()
    assert max(rollup.vol_day) == small_frame.day.max()
    assert rollup.n_days() == len(np.unique(small_frame.day))


def test_rejects_huge_customer_ids(small_frame):
    """Customer-day keys pack the customer id below 1e6; a larger id
    would collide silently, so the fold refuses it."""
    clone = small_frame.filter(np.ones(len(small_frame), dtype=bool))
    clone.customer_id = clone.customer_id + 2_000_000
    with pytest.raises(ValueError, match="customer ids"):
        StreamRollup.for_frame(clone).update(clone)


# -- StreamRollup.merge: the mergeability property --------------------------
#
# The streaming pipeline leans on merge being a fold: resuming a
# capture, sharding it, or combining per-window rollups in any grouping
# must answer the same queries. Exact bit-identity holds for the two
# orders production actually uses (left-to-right, and resume's
# fold-then-continue); arbitrary regroupings commute the float
# additions, so those are integer-exact and float-allclose.

MERGE_SEEDS = (3, 17, 2022)


@pytest.fixture(scope="module", params=MERGE_SEEDS)
def window_rollups(request):
    """Six single-window rollups (plus their pools) for one seed."""
    config = WorkloadConfig(n_customers=60, days=6, seed=request.param)
    generator = WorkloadGenerator(config)
    producer = WindowedProducer(generator, window_days=1)
    pools = (
        generator.countries_pool,
        generator.services_pool,
        generator.resolvers_pool,
    )

    def single(frame):
        return StreamRollup(*pools).update(frame)

    with ShardWorkerPool(generator, 1) as pool:
        frames = [producer.generate_window(w, pool) for w in producer.windows]
    return pools, frames, single


def _merge_all(parts):
    acc = parts[0]
    for part in parts[1:]:
        acc.merge(part)
    return acc


def test_merge_equals_fold(window_rollups):
    """Left-to-right merge of per-window rollups IS the streaming fold,
    bit for bit — the identity checkpoint/resume relies on."""
    pools, frames, single = window_rollups
    fold = StreamRollup(*pools)
    for frame in frames:
        fold.update(frame)
    merged = _merge_all([single(f) for f in frames])
    assert merged.state_digest() == fold.state_digest()


def test_merge_resume_pattern_exact(window_rollups):
    """Splitting the fold at every prefix point (what a crash at any
    window boundary produces) is bit-identical to the unbroken fold."""
    pools, frames, single = window_rollups
    whole = _merge_all([single(f) for f in frames])
    for cut in range(1, len(frames)):
        head = _merge_all([single(f) for f in frames[:cut]])
        for frame in frames[cut:]:
            head.update(frame)
        assert head.state_digest() == whole.state_digest()


def test_merge_associative_groupings_exact_where_exact(window_rollups):
    """Random partitions merged in random order: integer state (flow
    counts, customer sets, histogram bins) is exact; float-summed state
    commutes additions, so it is allclose at 1e-9."""
    pools, frames, single = window_rollups
    reference = _merge_all([single(f) for f in frames])
    ref_arrays = reference._state_arrays()
    rng = np.random.default_rng(99)
    for _trial in range(4):
        order = rng.permutation(len(frames))
        cuts = sorted(rng.choice(range(1, len(frames)), size=2, replace=False))
        groups = np.split(order, cuts)
        group_rollups = [
            _merge_all([single(frames[i]) for i in group]) for group in groups
        ]
        regrouped = _merge_all(group_rollups)
        arrays = regrouped._state_arrays()
        assert sorted(arrays) == sorted(ref_arrays)
        for name, ref in ref_arrays.items():
            got = arrays[name]
            if np.issubdtype(ref.dtype, np.floating):
                assert np.allclose(got, ref, rtol=1e-9, atol=0, equal_nan=True), name
            else:
                assert np.array_equal(got, ref), name


def test_merge_queries_survive_regrouping(window_rollups):
    """The report-facing queries agree across groupings (rel 1e-9)."""
    pools, frames, single = window_rollups
    a = _merge_all([single(f) for f in frames])
    b = _merge_all([single(f) for f in reversed(frames)])
    assert a.flows_total == b.flows_total
    assert np.array_equal(a.customers_c(), b.customers_c())
    assert np.allclose(a.volume_c(), b.volume_c(), rtol=1e-9)
    assert np.allclose(a.volume_by_l7(), b.volume_by_l7(), rtol=1e-9)


def test_merge_rejects_mismatched_pools(window_rollups):
    pools, frames, single = window_rollups
    other = StreamRollup(["Atlantis"], pools[1], pools[2])
    with pytest.raises(ValueError, match="different pools"):
        single(frames[0]).merge(other)


# -- the bank table: one declaration per fixed-shape bank --------------------

POOLS = (["Spain", "Congo"], ["Netflix", "Youtube"], ["Google", "Operator-EU"])


def test_bank_table_covers_every_array_attribute():
    """Every ndarray or HistFamily attribute of a rollup is declared in
    ``BANKS`` exactly once — nothing is merged, copied or saved by a
    hand-kept list."""
    rollup = StreamRollup(*POOLS)
    declared = [bank.name for bank in StreamRollup.BANKS]
    assert len(declared) == len(set(declared))
    attributes = {
        name
        for name, value in vars(rollup).items()
        if isinstance(value, (np.ndarray, HistFamily))
    }
    assert attributes == set(declared)


@pytest.mark.parametrize("bank", StreamRollup.BANKS, ids=lambda bank: bank.name)
def test_every_bank_is_digested_saved_copied_and_merged(bank, tmp_path):
    empty_digest = StreamRollup(*POOLS).state_digest()
    parts = bank.arrays(getattr(StreamRollup(*POOLS), bank.name))
    for key in parts:
        rollup = StreamRollup(*POOLS)
        snapshot = rollup.copy()
        bank.arrays(getattr(rollup, bank.name))[key].flat[-1] = 7
        digest = rollup.state_digest()
        assert digest != empty_digest, key
        assert snapshot.state_digest() == empty_digest, f"copy aliases {key}"
        assert rollup.copy().state_digest() == digest, key
        rollup.save(tmp_path / "rollup.npz")
        assert StreamRollup.load(tmp_path / "rollup.npz").state_digest() == digest
        assert StreamRollup(*POOLS).merge(rollup).state_digest() == digest, key


def test_load_rejects_a_bank_of_the_wrong_shape(tmp_path):
    from repro.analysis.source import CaptureError

    rollup = StreamRollup(*POOLS)
    rollup.save(tmp_path / "rollup.npz")
    with np.load(tmp_path / "rollup.npz") as data:
        arrays = dict(data)
    arrays["flows_c"] = np.zeros(3, dtype=np.int64)
    np.savez(tmp_path / "bad.npz", **arrays)
    with pytest.raises(CaptureError, match="flows_c"):
        StreamRollup.load(tmp_path / "bad.npz")
