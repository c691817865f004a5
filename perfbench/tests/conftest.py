"""Shared fixtures: a tiny workload that solves in well under a second."""
from __future__ import annotations

import pytest

from perfbench import workloads
from perfbench.workloads import Workload

TINY = Workload(
    name="tiny",
    why="test-sized ring",
    n_satellites=8,
    duration_s=21600.0,
    step_s=30.0,
    centralized_budget=None,
    block=1,
)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, TINY.name, TINY)
    return TINY.name
