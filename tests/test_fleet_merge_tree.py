"""The fleet merge is exact for every partition count.

Rollup *state* merges are only ``allclose`` under regrouping (float
byte sums), so the fleet merge concatenates each window's partition
frames in partition order — a pure ``np.concatenate`` — and folds the
windows in order. The property test sweeps partition counts 2–9 and
asserts each merged digest is bit-identical to the single-process
stream digest of the same scenario.
"""

import pytest

from repro.fleet import merge_partition_captures, plan_partitions, run_partition
from repro.scenario import get_scenario
from repro.stream import run_stream_capture

MAX_PARTITIONS = 9

SWEEP_OVERRIDES = {
    "population.n_customers": 27,
    "workload.days": 2,
    "workload.n_shards": MAX_PARTITIONS,
    "execution.compress": False,
}


@pytest.fixture(scope="module")
def sweep_scenario():
    return get_scenario("baseline-geo").with_overrides(SWEEP_OVERRIDES)


@pytest.fixture(scope="module")
def sweep_reference(sweep_scenario, tmp_path_factory):
    directory = tmp_path_factory.mktemp("sweep-single")
    result = run_stream_capture(sweep_scenario.stream_config(), directory)
    return result.rollup.state_digest()


@pytest.fixture(scope="module")
def partition_captures(sweep_scenario, tmp_path_factory):
    """Completed partition capture dirs for every count in 2..9."""
    captures = {}
    for n in range(2, MAX_PARTITIONS + 1):
        root = tmp_path_factory.mktemp(f"sweep-n{n}")
        plan = plan_partitions(sweep_scenario, partitions=n)
        directories = []
        for spec in plan.partitions:
            directory = root / spec.name
            run_partition(sweep_scenario, spec, directory)
            directories.append(directory)
        captures[n] = directories
    return captures


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
