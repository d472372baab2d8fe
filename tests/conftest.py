"""Shared fixtures for the test-suite.

Systems are session-scoped (topology objects are immutable in practice);
simulation configs are small enough for CI while still exercising
contention (buffers shallower than packets, multi-packet overlap).
"""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.topology.builder import build_system
from repro.topology.presets import (
    baseline_4_chiplets,
    baseline_6_chiplets,
    chiplet_grid,
    single_chiplet,
)
from repro.topology.spec import ChipletSpec, SystemSpec


@pytest.fixture(scope="session")
def system4():
    return baseline_4_chiplets()


@pytest.fixture(scope="session")
def system6():
    return baseline_6_chiplets()


@pytest.fixture(scope="session")
def system2():
    """A small 2-chiplet system for cheap integration tests."""
    return chiplet_grid(2, 1, name="two-chiplets")


@pytest.fixture(scope="session")
def hetero_system():
    """A big 6x4 chiplet (6 VLs) next to a small 3x3 chiplet (2 VLs),
    over a 10x5 interposer with one DRAM."""
    big = ChipletSpec(
        origin=(0, 0), width=6, height=4,
        vl_positions=((1, 0), (4, 0), (0, 2), (5, 2), (2, 3), (3, 3)),
    )
    small = ChipletSpec(
        origin=(6, 1), width=3, height=3,
        vl_positions=((1, 0), (1, 2)),
    )
    spec = SystemSpec(
        chiplets=(big, small),
        interposer_width=10,
        interposer_height=5,
        dram_positions=((9, 4),),
        name="hetero-2-chiplets",
    )
    return build_system(spec)


@pytest.fixture(scope="session")
def lone_chiplet():
    return single_chiplet()


@pytest.fixture()
def fast_config():
    """Short but contention-capable simulation window."""
    return SimulationConfig(
        warmup_cycles=100,
        measure_cycles=500,
        drain_cycles=6_000,
        watchdog_cycles=4_000,
        seed=7,
    )
