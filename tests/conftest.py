"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.graph.schedules import StaticSchedule
from repro.graph.topology import ChainTopology, RingTopology
from repro.robots.algorithms import PEF1, PEF2, PEF3Plus


def pytest_configure(config: pytest.Config) -> None:
    # Registered so the marker is known; nothing deselects it by default.
    config.addinivalue_line("markers", "slow: a long-running test")


@pytest.fixture
def ring6() -> RingTopology:
    """A 6-node ring."""
    return RingTopology(6)


@pytest.fixture
def ring4() -> RingTopology:
    """A 4-node ring."""
    return RingTopology(4)


@pytest.fixture
def ring3() -> RingTopology:
    """A 3-node ring."""
    return RingTopology(3)


@pytest.fixture
def ring2() -> RingTopology:
    """The 2-node multigraph ring of Section 5.2."""
    return RingTopology(2)


@pytest.fixture
def chain5() -> ChainTopology:
    """A 5-node chain."""
    return ChainTopology(5)


@pytest.fixture
def static6(ring6: RingTopology) -> StaticSchedule:
    """The fully static 6-ring."""
    return StaticSchedule(ring6)


@pytest.fixture
def pef3() -> PEF3Plus:
    """A fresh PEF_3+ instance."""
    return PEF3Plus()


@pytest.fixture
def pef2() -> PEF2:
    """A fresh PEF_2 instance."""
    return PEF2()


@pytest.fixture
def pef1() -> PEF1:
    """A fresh PEF_1 instance."""
    return PEF1()
