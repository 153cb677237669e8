"""Shared fixtures.

The flow-level dataset and the packet-level simulation are expensive
relative to a unit test, so they are produced once per session and
shared by every report/integration test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.pipeline import PacketSimConfig, run_packet_simulation
from repro.traffic.workload import WorkloadConfig, WorkloadGenerator


@pytest.fixture(scope="session")
def small_generator() -> WorkloadGenerator:
    """A small but statistically usable workload generator."""
    return WorkloadGenerator(WorkloadConfig(n_customers=420, days=3, seed=42))


@pytest.fixture(scope="session")
def small_frame(small_generator):
    """~1.5 M flows across all countries, 3 days."""
    return small_generator.generate()


@pytest.fixture(scope="session")
def small_rollup(small_frame):
    """The session frame folded into a rollup in one (day-aligned) chunk
    — what every exact report reads."""
    from repro.stream import StreamRollup

    return StreamRollup.for_frame(small_frame).update(small_frame)


@pytest.fixture(scope="session")
def packet_sim_result():
    """A packet-level run of the full Figure 1 path."""
    return run_packet_simulation(
        PacketSimConfig(
            countries=("Spain", "Congo", "Ireland", "Nigeria"),
            flows_per_customer=4,
            seed=5,
        )
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(1234)
