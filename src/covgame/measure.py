"""Coverage as boolean masks on a uniform time grid.

A coverage value is a read-only ``np.ndarray[bool]`` of length
``grid.n_steps``: a cell is covered iff the defining predicate holds at the
cell's left edge. On a common grid every measure identity
(inclusion-exclusion, additivity of disjoint unions) is exact, because a
measure is ``dt`` times an integer cell count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid over ``[t0, tf)`` with step ``dt`` seconds.

    Cell ``j`` covers ``[t0 + j*dt, t0 + (j+1)*dt)``.
    """

    t0: float
    tf: float
    dt: float

    def __post_init__(self) -> None:
        if not (self.dt > 0.0):
            raise ValueError(f"grid step must be positive, got dt={self.dt}")
        if not (self.tf > self.t0):
            raise ValueError(f"grid needs tf > t0, got [{self.t0}, {self.tf}]")
        if self.n_steps < 1:
            raise ValueError("grid must contain at least one cell")
        if not math.isclose(self.n_steps * self.dt, self.duration, rel_tol=1e-9):
            raise ValueError(
                f"grid step {self.dt} does not divide the horizon {self.duration}"
            )

    @property
    def n_steps(self) -> int:
        return int(round((self.tf - self.t0) / self.dt))

    @property
    def duration(self) -> float:
        return self.tf - self.t0

    def cell_starts(self) -> np.ndarray:
        """Left edge of every cell, seconds."""
        return self.t0 + self.dt * np.arange(self.n_steps, dtype=float)


def union_many(sets: Sequence[np.ndarray], n_cells: int) -> np.ndarray:
    """OR of equal-length masks; all ``False`` when ``sets`` is empty."""
    out = np.zeros(n_cells, dtype=bool)
    for mask in sets:
        out |= mask
    return out
