"""Derivative-free maximizers.

Two solvers cover the project's needs: an exhaustive scalar maximizer that
scores a finite candidate array in one call of an array objective, for each
agent's one-dimensional best response, and a compass (pattern) search over a
box for the centralized baseline. The best-response objective is a
piecewise-constant window count with a quadratic penalty, so a finite set of
strategies (the agent's coverage breakpoints, see
:func:`covgame.game.best_response_gain`) holds a maximizer, and scoring each
of them is exact.

Both solvers are deterministic: identical inputs produce identical outputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class PatternSearchConfig:
    """Settings for compass search over a box.

    ``step_expand`` regrows the step after a successful poll (capped at the
    initial step); 1.0 disables expansion.
    """

    initial_step: float = 0.0654498469497874  # 3.75 degrees
    step_shrink: float = 0.5
    step_expand: float = 2.0
    min_step: float = 1.7453292519943296e-4  # 0.01 degrees
    max_evals: int = 20000

    def __post_init__(self) -> None:
        if not (0.0 < self.step_shrink < 1.0):
            raise ValueError("step_shrink must lie in (0, 1)")
        if self.step_expand < 1.0:
            raise ValueError("step_expand must be at least 1")
        if not (self.min_step > 0.0):
            raise ValueError("min_step must be positive")
        if not (self.initial_step >= self.min_step):
            raise ValueError("initial_step must be at least min_step")
        if self.max_evals < 1:
            raise ValueError("max_evals must be positive")


def _check_finite(value: float, point) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"objective returned non-finite value {value} at {point!r}")
    return value


def maximize_scalar(
    f: Callable[[np.ndarray], np.ndarray], candidates: np.ndarray
) -> tuple[float, float]:
    """Maximize ``f`` over a finite, non-empty set of ``candidates``.

    ``f`` scores the whole candidate array at once and returns one value per
    candidate. Checks that each value is finite and returns the first
    argmax, so ties go to the earliest candidate.

    Returns ``(argmax, value)``.

    Raises:
        ValueError: if there are no candidates, ``f`` returns an array of
            another shape, or a value is not finite.
    """
    xs = np.asarray(candidates, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("no candidates to maximize over")
    fs = np.asarray(f(xs), dtype=float)
    if fs.shape != xs.shape:
        raise ValueError("objective returned a wrong-shaped array")
    # A NaN is its own argmax, and an infinity shows at the max or the min.
    best = fs.argmax()
    if not (math.isfinite(fs[best]) and math.isfinite(fs.min())):
        bad = int(np.flatnonzero(~np.isfinite(fs))[0])
        raise ValueError(f"objective returned non-finite value {fs[bad]} at {xs[bad]!r}")
    return float(xs[best]), float(fs[best])


def pattern_search(
    f: Callable[[np.ndarray], float],
    bounds: Sequence[tuple[float, float]],
    start: Sequence[float],
    cfg: PatternSearchConfig = PatternSearchConfig(),
) -> tuple[np.ndarray, float, int]:
    """Compass-search maximization of ``f`` over a box.

    Probes ``+/-step`` along each coordinate and moves to the best improving
    probe of the whole stencil. After a successful poll the step regrows by
    ``cfg.step_expand``; after a failed one it shrinks by
    ``cfg.step_shrink``. Every accepted move strictly increases ``f``; stops
    when the step drops below ``cfg.min_step`` or the evaluation budget runs
    out.

    ``f`` is handed one probe array that the search reuses, so it must not
    keep a reference to its argument; a probe is copied only when it
    becomes its poll's best.

    Returns ``(argmax, value, n_evals)``.
    """
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if np.any(lo > hi):
        raise ValueError("box has an empty coordinate interval")
    x = np.asarray(start, dtype=float)
    if x.shape != lo.shape:
        raise ValueError("start point does not match the box dimension")
    x = np.clip(x, lo, hi)

    fx = _check_finite(f(x), x)
    evals = 1
    step = cfg.initial_step
    n = x.size

    while step >= cfg.min_step and evals < cfg.max_evals:
        best_cand: np.ndarray | None = None
        best_val = fx
        probe = x.copy()
        for i in range(n):
            xi = x[i]
            for sign in (1.0, -1.0):
                probe[i] = min(max(xi + sign * step, lo[i]), hi[i])
                if probe[i] == xi:
                    continue
                fc = _check_finite(f(probe), probe)
                evals += 1
                if fc > best_val:
                    best_cand, best_val = probe.copy(), fc
                if evals >= cfg.max_evals:
                    break
            probe[i] = xi
            if evals >= cfg.max_evals:
                break
        if best_cand is not None:
            x, fx = best_cand, best_val
            step = min(step * cfg.step_expand, cfg.initial_step)
        else:
            step *= cfg.step_shrink
    return x, fx, evals
