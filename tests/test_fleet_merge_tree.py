"""The fleet merge is exact for every partition count.

A customer lives in exactly one partition, so the merge takes the
verified partition rollup states and folds again, window by window,
only the float sums over many customers, whose bits depend on flow
order: the banks ``StreamRollup.BANKS`` marks ``ordered``, and
``vol_day``. The property test sweeps partition counts 2–9 and asserts
each merged digest is bit-identical to the single-process stream
digest of the same scenario; the declaration test asserts that a plain
state merge differs from the stream nowhere else. The rest pin what
the merge reads: only the declared columns, each checked by its CRC.
"""

import shutil
import zipfile

import pytest

from repro.analysis.source import CaptureError
from repro.fleet import merge_partition_captures, plan_partitions, run_partition
from repro.scenario import get_scenario
from repro.stream import StreamRollup, run_stream_capture
from repro.stream.checkpoint import rollup_path
from repro.stream.store import FlowStore

MAX_PARTITIONS = 9

SWEEP_OVERRIDES = {
    "population.n_customers": 27,
    "workload.days": 2,
    "workload.n_shards": MAX_PARTITIONS,
    "execution.compress": False,
}

#: What a plain state merge may get wrong: the declared order-sensitive
#: state, and ``counters`` (``windows_folded`` counts once per partition).
ORDERED = {bank.name for bank in StreamRollup.BANKS if bank.ordered} | {
    "vol_day",
    "counters",
}


def _partitions(scenario, root, n):
    directories = []
    for spec in plan_partitions(scenario, partitions=n).partitions:
        run_partition(scenario, spec, root / spec.name)
        directories.append(root / spec.name)
    return directories


def _state_merge(directories):
    merged = StreamRollup.load(rollup_path(directories[0]))
    for directory in directories[1:]:
        merged.merge(StreamRollup.load(rollup_path(directory)))
    return merged


def _undeclared(merged, reference):
    mine, theirs = merged.bank_digests(), reference.bank_digests()
    return sorted(k for k in theirs if mine[k] != theirs[k] and k not in ORDERED)


@pytest.fixture(scope="module")
def sweep_scenario():
    return get_scenario("baseline-geo").with_overrides(SWEEP_OVERRIDES)


@pytest.fixture(scope="module")
def sweep_rollup(sweep_scenario, tmp_path_factory):
    directory = tmp_path_factory.mktemp("sweep-single")
    return run_stream_capture(sweep_scenario.stream_config(), directory).rollup


@pytest.fixture(scope="module")
def sweep_reference(sweep_rollup):
    return sweep_rollup.state_digest()


@pytest.fixture(scope="module")
def partition_captures(sweep_scenario, tmp_path_factory):
    """Completed partition capture dirs for every count in 2..9."""
    return {
        n: _partitions(sweep_scenario, tmp_path_factory.mktemp(f"sweep-n{n}"), n)
        for n in range(2, MAX_PARTITIONS + 1)
    }


def test_partition_count_does_not_change_bytes(
    partition_captures, sweep_reference
):
    """For every partition count, the flat merge is the single stream."""
    digests = {
        n: merge_partition_captures(dirs).state_digest()
        for n, dirs in partition_captures.items()
    }
    diverged = {n for n, digest in digests.items() if digest != sweep_reference}
    assert not diverged, f"partition counts {sorted(diverged)} diverged"


def test_state_merge_differs_only_in_declared_ordered_state(
    partition_captures, sweep_rollup
):
    """The ``ordered`` declaration is complete: everything else merges
    exactly from the partition states, whatever the partition count."""
    undeclared = {
        n: _undeclared(_state_merge(dirs), sweep_rollup)
        for n, dirs in partition_captures.items()
    }
    assert not any(undeclared.values()), undeclared


@pytest.fixture(scope="module")
def video_fleet(tmp_path_factory):
    """A three-partition ``video-streaming`` capture and its single
    stream: the only scenario with the Figure 12 QoE sums."""
    scenario = get_scenario("video-streaming").with_overrides({
        "population.n_customers": 36,
        "workload.days": 2,
        "workload.n_shards": 6,
        "execution.compress": False,
    })
    root = tmp_path_factory.mktemp("video")
    single = run_stream_capture(scenario.stream_config(), root / "single").rollup
    return single, _partitions(scenario, root, 3)


def test_video_fleet_matches_single_stream(video_fleet):
    single, directories = video_fleet
    assert single.qoe_sessions.sum() > 0
    assert merge_partition_captures(directories).state_digest() == single.state_digest()
    assert not _undeclared(_state_merge(directories), single)


def test_merge_reads_only_the_declared_columns(video_fleet, monkeypatch):
    _, directories = video_fleet
    asked = []
    read_window = FlowStore.read_window

    def spy(store, index, columns=None):
        asked.append(columns)
        return read_window(store, index, columns=columns)

    monkeypatch.setattr(FlowStore, "read_window", spy)
    merge_partition_captures(directories)
    declared = StreamRollup.ORDERED_COLUMNS + StreamRollup.SESSION_COLUMNS
    assert asked and all(columns == declared for columns in asked)


def test_sessionless_merge_skips_the_session_columns(partition_captures, monkeypatch):
    asked = set()
    read_window = FlowStore.read_window

    def spy(store, index, columns=None):
        asked.add(columns)
        return read_window(store, index, columns=columns)

    monkeypatch.setattr(FlowStore, "read_window", spy)
    merge_partition_captures(partition_captures[2])
    assert asked == {StreamRollup.ORDERED_COLUMNS}


def _flip_column_byte(path, column):
    """Flip one byte of ``column``'s last array element in an
    uncompressed npz, leaving the zip directory and the CRC alone."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(f"{column}.npy")
    assert info.compress_type == zipfile.ZIP_STORED
    data = bytearray(path.read_bytes())
    header = info.header_offset  # local header: 30 bytes, then name and extra
    name_len = int.from_bytes(data[header + 26 : header + 28], "little")
    extra_len = int.from_bytes(data[header + 28 : header + 30], "little")
    start = header + 30 + name_len + extra_len
    data[start + info.file_size - 8] ^= 0xFF
    path.write_bytes(bytes(data))


@pytest.fixture
def sweep_copy(partition_captures, tmp_path):
    """A private copy of the two-partition capture to damage."""
    directories = []
    for directory in partition_captures[2]:
        shutil.copytree(directory, tmp_path / directory.name)
        directories.append(tmp_path / directory.name)
    return directories


def test_corrupt_merged_column_names_the_window(sweep_copy):
    path = FlowStore.open(sweep_copy[1]).window_path(1)
    _flip_column_byte(path, "bytes_down")
    with pytest.raises(CaptureError, match="window-00001"):
        merge_partition_captures(sweep_copy)


def test_corrupt_unread_column_leaves_the_merge_alone(sweep_copy, sweep_reference):
    store = FlowStore.open(sweep_copy[1])
    _flip_column_byte(store.window_path(1), "ts_start")
    assert merge_partition_captures(sweep_copy).state_digest() == sweep_reference
    with pytest.raises(CaptureError, match="window-00001"):
        store.read_window(1)


def test_partitions_sharing_customers_are_refused(partition_captures):
    first = partition_captures[2][0]
    with pytest.raises(CaptureError, match="shares customers"):
        merge_partition_captures([first, first])
