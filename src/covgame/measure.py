"""Set algebra over a uniform time grid, backed by boolean masks.

All sets live on a shared :class:`TimeGrid`; a cell belongs to a set iff the
set's defining predicate holds at the cell's left edge. On a common grid every
measure identity (inclusion-exclusion, additivity of disjoint unions) is exact
because measures are ``dt`` times integer cell counts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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

    @property
    def n_steps(self) -> int:
        return int(round((self.tf - self.t0) / self.dt))

    @property
    def duration(self) -> float:
        return self.tf - self.t0

    def cell_starts(self) -> np.ndarray:
        """Left edge of every cell, seconds."""
        return self.t0 + self.dt * np.arange(self.n_steps, dtype=float)


@dataclass(frozen=True, eq=False)
class CoverageSet:
    """A measurable subset of the time axis as a boolean mask on a grid."""

    grid: TimeGrid
    mask: np.ndarray

    def __post_init__(self) -> None:
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != (self.grid.n_steps,):
            raise ValueError(
                f"mask length {mask.shape} does not match grid with "
                f"{self.grid.n_steps} cells"
            )
        mask = mask.copy()
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @classmethod
    def empty(cls, grid: TimeGrid) -> "CoverageSet":
        return cls(grid, np.zeros(grid.n_steps, dtype=bool))

    @classmethod
    def from_windows(
        cls, grid: TimeGrid, windows: Iterable[tuple[float, float]]
    ) -> "CoverageSet":
        """Set of cells whose left edge falls in any half-open ``[lo, hi)``."""
        starts = grid.cell_starts()
        mask = np.zeros(grid.n_steps, dtype=bool)
        for lo, hi in windows:
            mask |= (starts >= lo) & (starts < hi)
        return cls(grid, mask)

    @property
    def cell_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def measure(self) -> float:
        """Lebesgue measure in seconds: dt times the cell count."""
        return self.grid.dt * self.cell_count

    def is_empty(self) -> bool:
        return not bool(self.mask.any())

    def __or__(self, other: "CoverageSet") -> "CoverageSet":
        return union(self, other)

    def __and__(self, other: "CoverageSet") -> "CoverageSet":
        return intersect(self, other)

    def __sub__(self, other: "CoverageSet") -> "CoverageSet":
        return difference(self, other)


def _check_same_grid(a: CoverageSet, b: CoverageSet) -> None:
    if a.grid != b.grid:
        raise ValueError(
            f"coverage sets live on different grids: {a.grid} vs {b.grid}"
        )


def union(a: CoverageSet, b: CoverageSet) -> CoverageSet:
    _check_same_grid(a, b)
    return CoverageSet(a.grid, a.mask | b.mask)


def intersect(a: CoverageSet, b: CoverageSet) -> CoverageSet:
    _check_same_grid(a, b)
    return CoverageSet(a.grid, a.mask & b.mask)


def difference(a: CoverageSet, b: CoverageSet) -> CoverageSet:
    _check_same_grid(a, b)
    return CoverageSet(a.grid, a.mask & ~b.mask)


def measure(a: CoverageSet) -> float:
    return a.measure


def union_many(
    sets: Sequence[CoverageSet], grid: TimeGrid | None = None
) -> CoverageSet:
    """Fold of :func:`union`; an empty sequence needs an explicit grid."""
    if not sets:
        if grid is None:
            raise ValueError("union of an empty collection needs a grid")
        return CoverageSet.empty(grid)
    first = sets[0]
    for s in sets[1:]:
        _check_same_grid(first, s)
    if grid is not None and first.grid != grid:
        raise ValueError("provided grid does not match the sets' grid")
    stacked = np.stack([s.mask for s in sets])
    return CoverageSet(first.grid, stacked.any(axis=0))
