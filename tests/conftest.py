"""Shared helpers: tiny deterministic games with hand-controllable structure."""
from __future__ import annotations

import numpy as np
import pytest

from covgame.game import AgentSpec, GameInstance, StrategyInterval, StrategyProfile
from covgame.measure import TimeGrid


class Ends(tuple):
    """The ``(starts, stops)`` pair of :func:`as_generator`'s ``scan``.

    It keeps the cells its row mask marks, as a mask over all cells, which
    is what that generator's ``masked_cell_counts`` counts.
    """

    within: np.ndarray


def as_generator(coverage, grid, points=()):
    """Give a test coverage function the generator protocol a game requires.

    Its ``cells`` are all of ``grid``'s. ``points``, ascending, serve as
    both the starts and the stops of ``scan``'s ends, whatever ``within``
    is; a coverage that ignores theta needs none. ``scan`` scatters its row
    mask ``within`` onto the cells at ``reach_positions(k)``, slices its
    candidates from ``points`` (those in ``[lo, z)``, then ``z``, then
    those in ``(z, hi]``) and counts them with ``masked_cell_counts``,
    which counts ``coverage(k, theta)`` on those cells for each theta, mask
    by mask. ``reach_positions(k)`` are the nonzero
    positions of the OR of ``k``'s masks at ``points`` and at 0, which is
    exact when every strategy of the agent's interval plays the mask of one
    of them. ``covered_positions(k, theta)`` are the nonzero positions of
    ``coverage(k, theta)``.
    """
    points = np.asarray(points, dtype=float)

    def covered_positions(k, theta):
        return np.flatnonzero(coverage(k, float(theta)))

    def scan(k, within, lo, z, hi):
        ends = Ends((points, points))
        ends.within = np.zeros(grid.n_steps, dtype=bool)
        ends.within[reach_positions(k)] = within
        first, last = points.searchsorted((lo, z))
        start, end = points.searchsorted((z, hi), "right")
        candidates = np.concatenate((points[first:last], [z], points[start:end]))
        return candidates, masked_cell_counts(k, candidates, ends), ends

    def masked_cell_counts(k, thetas, ends):
        counts = [np.count_nonzero(coverage(k, float(t)) & ends.within) for t in thetas]
        return np.array(counts, dtype=int)

    def reach_positions(k):
        masks = [coverage(k, float(t)) for t in (*points, 0.0)]
        return np.flatnonzero(np.any(masks, axis=0))

    coverage.cells = np.arange(grid.n_steps)
    coverage.covered_positions = covered_positions
    coverage.scan = scan
    coverage.masked_cell_counts = masked_cell_counts
    coverage.reach_positions = reach_positions
    return coverage


def reach_mask(coverage, k):
    """Agent ``k``'s reach as a boolean mask over ``coverage.cells``."""
    mask = np.zeros(len(coverage.cells), dtype=bool)
    mask[coverage.reach_positions(k)] = True
    return mask


def graph_game(graph, inactive=()):
    """Game whose derived neighbor graph is ``graph`` on its active agents.

    ``graph`` maps every agent ``1..n`` to its neighbors. Each edge gets a
    cell of its own, which both of its agents cover whatever they play, so
    two reaches meet exactly at the cell of their edge. Agents in
    ``inactive`` are damaged, and their edges drop out of the game's graph.
    """
    edges = sorted({(min(k, l), max(k, l)) for k, neigh in graph.items() for l in neigh})
    grid = TimeGrid(0.0, float(max(len(edges), 1)), 1.0)
    masks = {k: np.zeros(grid.n_steps, dtype=bool) for k in graph}
    for cell, (k, l) in enumerate(edges):
        masks[k][cell] = masks[l][cell] = True

    def coverage(k, theta):
        return masks[k].copy()

    as_generator(coverage, grid)
    agents = tuple(
        AgentSpec(k, StrategyInterval(-1.0, 1.0), 1.0, active=k not in inactive)
        for k in sorted(graph)
    )
    return GameInstance(agents, grid, coverage, 0.0)


def pairwise_graph(reach):
    """The neighbor graph by its definition: one AND per pair of agents.

    ``reach`` maps each agent to a boolean reach mask; the graph maps each
    agent to the frozenset of agents whose mask meets its own.
    """
    graph = {k: set() for k in reach}
    indices = sorted(reach)
    for i, k in enumerate(indices):
        for l in indices[i + 1 :]:
            if np.any(reach[k] & reach[l]):
                graph[k].add(l)
                graph[l].add(k)
    return {k: frozenset(v) for k, v in graph.items()}


def graph_positions(graph):
    """A set graph as the package takes one: ascending 0-based positions.

    ``graph`` maps each agent index to its neighbors' 1-based indices; the
    result maps it to ``index - 1`` of each neighbor, ascending, as
    ``GameInstance.neighbor_positions`` holds them.
    """
    return {k: np.array(sorted(neigh), dtype=np.intp) - 1 for k, neigh in graph.items()}


def neighbor_sets(game):
    """The game's graph as sets, ``game.neighbors(k)`` per key of ``neighbor_positions``."""
    return {k: game.neighbors(k) for k in game.neighbor_positions}


def sampled_reach_graph(agents, coverage):
    """Reference graph from sampled reaches, which the package does not build.

    Each active agent's reach is the OR of its masks at 64 evenly spaced
    strategies of its interval, both ends included. A sample can miss an
    overlap narrower than its spacing, so this graph must be a subgraph of
    the exact one.
    """
    reach = {}
    for a in agents:
        if a.active:
            space = a.strategy_space
            thetas = np.linspace(space.lo, space.hi, 64)
            reach[a.index] = np.any([coverage(a.index, float(t)) for t in thetas], axis=0)
    return pairwise_graph(reach)


class CallCounter:
    """Counts the calls of one method of a class while it is patched in."""

    def __init__(self, monkeypatch, cls, name):
        self.calls = 0
        method = getattr(cls, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)


def alone(cover, own):
    """Cells where ``cover``'s count equals the boolean mask ``own``.

    For an agent's incumbent mask these are the cells no other active agent
    covers: the whole-grid reference for the selection a best response makes
    at its reach.
    """
    return cover.counts == own.view(np.uint8)


class _WatchedCounts(np.ndarray):
    """A cover count that counts the ``==`` comparisons reading all of it.

    Arrays taken from it, such as a gather at some positions, are not whole
    and go uncounted.
    """

    def __array_finalize__(self, obj):
        self.watch = None

    def __eq__(self, other):
        if self.watch is not None:
            self.watch.calls += 1
        return np.asarray(self) == other


class WholeCountCompares:
    """Counts comparisons against a whole ``CoverCount.counts`` while patched in.

    Every cover count built while the patch holds is watched, and so is each
    one passed to :meth:`watch`.
    """

    def __init__(self, monkeypatch):
        from covgame.game import CoverCount

        self.calls = 0
        build = CoverCount.__init__

        def watched(cover, *args, **kwargs):
            build(cover, *args, **kwargs)
            self.watch(cover)

        monkeypatch.setattr(CoverCount, "__init__", watched)

    def watch(self, cover):
        counts = cover.counts.view(_WatchedCounts)
        counts.watch = self
        cover.counts = counts


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
    so coverage is piecewise constant in theta with plateaus ``quantum`` wide.
    The lattice ``j * quantum`` holds a strategy of every plateau, so the
    reach ORed over it is exact, and best responses range over it.
    """
    grid = TimeGrid(0.0, n_cells * dt, dt)
    space = StrategyInterval(-span, span)

    def coverage(k: int, theta: float) -> np.ndarray:
        shift = int(np.round(theta / quantum))
        return window_mask(grid, (k - 1) * spacing + shift, width)

    as_generator(coverage, grid, lattice(span, quantum))

    agents = tuple(
        AgentSpec(index=k, strategy_space=space, theta_max=theta_max)
        for k in range(1, n_agents + 1)
    )
    return GameInstance(agents, grid, coverage, gamma)


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

    as_generator(coverage, grid, lattice(4.0, 1.0))

    agents = tuple(
        AgentSpec(index=k, strategy_space=space, theta_max=1.0) for k in range(1, 5)
    )
    return GameInstance(agents, grid, coverage, gamma)


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


def random_profile(game: GameInstance, rng: np.random.Generator):
    """Valid random profile: active agents uniform in their intervals."""
    theta = np.zeros(game.n_agents)
    for a in game.agents:
        if a.active:
            theta[a.index - 1] = rng.uniform(a.strategy_space.lo, a.strategy_space.hi)
    return StrategyProfile(theta)
