"""Derivative-free maximizers.

Two solvers cover the project's needs: a bounded scalar maximizer for each
agent's one-dimensional best response, and a compass (pattern) search over a
box for the centralized baseline. Objectives here are typically
piecewise-constant window integrals with a quadratic penalty, so the scalar
maximizer runs a dense uniform pre-scan (plateaus) before golden-section
refinement (the quadratic tilt).

Both solvers are deterministic: identical inputs produce identical outputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/golden ratio


@dataclass(frozen=True)
class ScalarMaximizerConfig:
    """Settings for the bounded scalar maximizer.

    coarse_points: size of the uniform pre-scan over the interval.
    refine_tolerance: stop refining when the bracket is this narrow (radians).
    max_refine_iters: hard cap on golden-section steps.
    """

    coarse_points: int = 181
    refine_tolerance: float = 1e-5
    max_refine_iters: int = 64

    def __post_init__(self) -> None:
        if self.coarse_points < 3:
            raise ValueError("coarse_points must be at least 3")
        if not (self.refine_tolerance > 0.0):
            raise ValueError("refine_tolerance must be positive")
        if self.max_refine_iters < 0:
            raise ValueError("max_refine_iters must be non-negative")


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
    f: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: ScalarMaximizerConfig = ScalarMaximizerConfig(),
    batch_f: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[float, float]:
    """Maximize ``f`` over ``[lo, hi]``.

    Uniform pre-scan of ``cfg.coarse_points`` probes, then golden-section
    refinement inside the bracket around the best sample. The result is never
    worse than the best pre-scan probe.

    ``batch_f``, when given, must evaluate ``f`` elementwise on an array; it is
    used for the pre-scan only and must agree with ``f`` point by point.

    Returns ``(argmax, value)``.

    Raises:
        ValueError: if ``lo > hi`` or the objective returns a non-finite value.
    """
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if lo == hi:
        return lo, _check_finite(f(lo), lo)

    xs = np.linspace(lo, hi, cfg.coarse_points)
    if batch_f is not None:
        fs = np.asarray(batch_f(xs), dtype=float)
        if fs.shape != xs.shape:
            raise ValueError("batch objective returned a wrong-shaped array")
        if not np.isfinite(fs).all():
            bad = int(np.flatnonzero(~np.isfinite(fs))[0])
            raise ValueError(
                f"objective returned non-finite value at {xs[bad]!r}"
            )
    else:
        fs = np.array([_check_finite(f(x), x) for x in xs])

    best_i = int(np.argmax(fs))
    best_x = float(xs[best_i])
    best_v = float(fs[best_i])

    # Golden-section refinement inside the bracketing triple.
    a = float(xs[max(best_i - 1, 0)])
    b = float(xs[min(best_i + 1, cfg.coarse_points - 1)])
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1 = _check_finite(f(x1), x1)
    f2 = _check_finite(f(x2), x2)
    for _ in range(cfg.max_refine_iters):
        if (b - a) <= cfg.refine_tolerance:
            break
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = _check_finite(f(x1), x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = _check_finite(f(x2), x2)

    for x, v in ((x1, f1), (x2, f2)):
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


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

    Returns ``(argmax, value, n_evals)``.
    """
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if np.any(lo > hi):
        raise ValueError("box has an empty coordinate interval")
    x = np.clip(np.asarray(start, dtype=float), lo, hi)
    if x.shape != lo.shape:
        raise ValueError("start point does not match the box dimension")

    fx = _check_finite(f(x), x)
    evals = 1
    step = cfg.initial_step
    n = x.size

    while step >= cfg.min_step and evals < cfg.max_evals:
        best_cand: np.ndarray | None = None
        best_val = fx
        budget_hit = False
        for i in range(n):
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[i] = min(max(cand[i] + sign * step, lo[i]), hi[i])
                if cand[i] == x[i]:
                    continue
                fc = _check_finite(f(cand), cand)
                evals += 1
                if fc > best_val:
                    best_cand, best_val = cand, fc
                if evals >= cfg.max_evals:
                    budget_hit = True
                    break
            if budget_hit:
                break
        if best_cand is not None:
            x, fx = best_cand, best_val
            step = min(step * cfg.step_expand, cfg.initial_step)
        else:
            step *= cfg.step_shrink
        if budget_hit:
            break
    return x, fx, evals
