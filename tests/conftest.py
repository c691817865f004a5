"""Shared helpers: tiny deterministic games with hand-controllable structure."""
from __future__ import annotations

import numpy as np
import pytest

from covgame.game import (
    AgentSpec,
    CoverCount,
    GameInstance,
    StrategyInterval,
    StrategyProfile,
    neighbor_graph_from_reach,
)
from covgame.measure import TimeGrid


def with_breakpoints(coverage, points=()):
    """Give a test coverage function the ``breakpoints`` a game requires.

    ``points`` serve as both the starts and the stops, whatever ``within``
    is; a coverage that ignores theta needs none.
    """
    points = np.asarray(points, dtype=float)
    coverage.breakpoints = lambda k, within: (points, points)
    return coverage


class CallCounter:
    """Counts the calls of one method of a class while it is patched in."""

    def __init__(self, monkeypatch, cls, name):
        self.calls = 0
        method = getattr(cls, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)


def lattice(span: float, quantum: float) -> np.ndarray:
    """The points ``j * quantum`` within ``[-span, span]``.

    A window that slides by ``round(theta / quantum)`` cells takes its
    ``j``-th position at ``j * quantum``; offering these points as the
    breakpoints makes every best response the best lattice strategy.
    """
    n = int(np.floor(span / quantum))
    return quantum * np.arange(-n, n + 1)


def window_mask(grid: TimeGrid, start: int, width: int) -> np.ndarray:
    """Mask covering ``width`` cells from cell ``start``, clipped to the grid."""
    mask = np.zeros(grid.n_steps, dtype=bool)
    lo = max(start, 0)
    hi = min(start + width, grid.n_steps)
    if hi > lo:
        mask[lo:hi] = True
    return mask


def sliding_window_game(
    n_agents: int = 6,
    n_cells: int = 60,
    dt: float = 1.0,
    width: int = 10,
    spacing: int = 9,
    quantum: float = 0.5,
    span: float = 3.0,
    gamma: float = 0.05,
    theta_max: float = 1.0,
) -> GameInstance:
    """Agents slide fixed-width windows along a shared grid.

    Agent k's window starts at ``(k-1)*spacing + round(theta/quantum)`` cells,
    so coverage is piecewise constant in theta with plateaus ``quantum`` wide;
    any strategy-space sample finer than ``quantum`` sees every plateau, which
    makes the sampled reach graph exact. Best responses range over the
    lattice ``j * quantum``.
    """
    grid = TimeGrid(0.0, n_cells * dt, dt)
    space = StrategyInterval(-span, span)

    def coverage(k: int, theta: float) -> np.ndarray:
        shift = int(np.round(theta / quantum))
        return window_mask(grid, (k - 1) * spacing + shift, width)

    with_breakpoints(coverage, lattice(span, quantum))

    agents = tuple(
        AgentSpec(index=k, strategy_space=space, theta_max=theta_max)
        for k in range(1, n_agents + 1)
    )
    graph = neighbor_graph_from_reach(agents, coverage, grid)
    return GameInstance(agents, grid, coverage, gamma, graph)


def two_cluster_game(gamma: float = 0.01) -> GameInstance:
    """Four agents in two independent pairs, built to elect agents 1 and 3.

    Within each pair the windows overlap; the odd agent can escape the
    overlap completely while the even one cannot, so round one has exactly
    two non-neighboring agents with dominant regrets.
    """
    grid = TimeGrid(0.0, 100.0, 1.0)
    space = StrategyInterval(-4.0, 4.0)
    width = {1: 12, 2: 10, 3: 10, 4: 8}
    base = {1: 10, 2: 14, 3: 60, 4: 63}

    def coverage(k: int, theta: float) -> np.ndarray:
        shift = int(np.round(theta))
        return window_mask(grid, base[k] + shift, width[k])

    with_breakpoints(coverage, lattice(4.0, 1.0))

    agents = tuple(
        AgentSpec(index=k, strategy_space=space, theta_max=1.0) for k in range(1, 5)
    )
    graph = neighbor_graph_from_reach(agents, coverage, grid)
    return GameInstance(agents, grid, coverage, gamma, graph)


def mini_scenario_doc() -> dict:
    """Small orbital scenario (12 satellites, 200 minutes) with real passes."""
    return {
        "name": "mini-12sat",
        "constellation": {
            "n_satellites": 12,
            "semi_major_axis_km": 6896.27,
            "inclination_deg": 98.0,
            "raan_deg": 284.507,
            "greenwich_angle_deg": 284.507,
            "phase_spacing_deg": 30.0,
        },
        "target": {
            "longitude_deg": 121.3,
            "latitude_deg": 31.1,
            "view_half_angle_deg": 9.45,
        },
        "grid": {"duration_s": 12000.0, "step_s": 10.0},
        "game": {
            "gamma": 0.2,
            "strategy_bounds_deg": [-15.0, 15.0],
            "theta_max": {"unit": "radian", "value": 1.0},
        },
        "search": {
            "epsilon_s": 0.1,
            "max_rounds": 10,
            "scalar": {
                "coarse_points": 201,
                "refine_tolerance_deg": 0.005,
                "max_refine_iters": 64,
            },
        },
        "centralized": {
            "initial_step_deg": 3.75,
            "step_shrink": 0.5,
            "step_expand": 2.0,
            "min_step_deg": 0.01,
            "max_evals": 5000,
        },
        "damaged": [5],
        "seed": 7,
    }


@pytest.fixture
def mini_cfg():
    from covgame.scenario import parse_scenario

    return parse_scenario(mini_scenario_doc())


@pytest.fixture
def mini_scenario_file(tmp_path):
    import json

    path = tmp_path / "mini.json"
    path.write_text(json.dumps(mini_scenario_doc()))
    return path


@pytest.fixture
def toy_game() -> GameInstance:
    return sliding_window_game()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240815)


def cover_of(game: GameInstance, states) -> CoverCount:
    """The cover count of round states, built as ``run_search`` builds its own."""
    theta = np.zeros(game.n_agents)
    for k, state in states.items():
        theta[k - 1] = state.theta
    return CoverCount(game, StrategyProfile(theta))


def random_profile(game: GameInstance, rng: np.random.Generator):
    """Valid random profile: active agents uniform in their intervals."""
    theta = np.zeros(game.n_agents)
    for a in game.agents:
        if a.active:
            theta[a.index - 1] = rng.uniform(a.strategy_space.lo, a.strategy_space.hi)
    return StrategyProfile(theta)
