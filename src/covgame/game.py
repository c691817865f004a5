"""Coverage game objects: strategy spaces, objectives, neighbor graph, regret.

The game couples a per-agent coverage generator with a quadratic energy
penalty. The generator is a pure map from an agent's scalar strategy to a
boolean mask over its ``cells``, sorted indices of the cells of a
:class:`~covgame.measure.TimeGrid`, so every measure is ``dt`` times a count.
It also lists where an agent's count of some cells can change
(``breakpoints``) and counts those cells for many strategies in one call
(``masked_cell_counts``); :class:`GameInstance` states the protocol. The
global objective is the measure of the union of all active agents' coverage
minus the scaled penalty sum; each agent's local objective is the measure of
its coverage exclusive of its graph neighbors minus its own penalty. Every
neighbor graph comes from :func:`neighbor_graph_from_masks` over each agent's
exact reach, the cells it covers for some admissible strategy, so it holds
every pair whose coverages can ever overlap, and a unilateral strategy change
moves both objectives by exactly the same amount, which is what the
distributed search engine relies on. A :class:`CoverCount` carries one
profile's coverage as an integer count per cell: the engine keeps one per
run, and best responses select their cells from it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .measure import TimeGrid, union_many
from .optimize import maximize_scalar

CoverageFn = Callable[[int, float], np.ndarray]

# Slack with which a strategy still counts as inside its interval, radians.
CONTAINS_TOL = 1e-12


@dataclass(frozen=True)
class StrategyInterval:
    """Closed interval of admissible strategies, radians."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("strategy interval must be finite")
        if self.lo > self.hi:
            raise ValueError(f"strategy interval [{self.lo}, {self.hi}] is empty")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, theta: float, tol: float = CONTAINS_TOL) -> bool:
        return self.lo - tol <= theta <= self.hi + tol


@dataclass(frozen=True)
class AgentSpec:
    """One agent: 1-based index, strategy interval, energy surplus, liveness.

    ``theta_max`` is the energy surplus coefficient: the penalty for playing
    ``theta`` is ``(theta / theta_max) ** 2``, so a larger surplus makes
    maneuvers cheaper. Inactive agents model damaged hardware: they contribute
    no coverage, no energy and take no part in the game.
    """

    index: int
    strategy_space: StrategyInterval
    theta_max: float
    active: bool = True

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("agent index is 1-based")
        if not (0.0 < self.theta_max < np.inf):
            raise ValueError(f"theta_max must be positive and finite, got {self.theta_max}")


@dataclass(frozen=True)
class StrategyProfile:
    """Vector of strategies, one entry per agent, position = index - 1.

    Entries of inactive agents are kept at 0 and ignored by every objective.
    """

    theta: np.ndarray

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=float).copy()
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)

    @classmethod
    def zeros(cls, n_agents: int) -> "StrategyProfile":
        return cls(np.zeros(n_agents))

    @classmethod
    def owning(cls, theta: np.ndarray) -> "StrategyProfile":
        """Profile over a fresh float array that nothing else holds, uncopied.

        The array is frozen in place, so the profile stays as immutable as
        one built by copying; the caller must keep no reference to it.
        """
        profile = object.__new__(cls)
        theta.flags.writeable = False
        object.__setattr__(profile, "theta", theta)
        return profile

    def for_agent(self, index: int) -> float:
        return float(self.theta[index - 1])

    def replace(self, index: int, value: float) -> "StrategyProfile":
        theta = self.theta.copy()
        theta[index - 1] = value
        return StrategyProfile.owning(theta)

    def __len__(self) -> int:
        return self.theta.size


class GameInstance:
    """Immutable bundle of agents, coverage generator, penalty scale and graph.

    The coverage generator ``coverage_fn`` must expose, and the constructor
    checks (a missing member raises ``TypeError`` naming it):

    - ``coverage_fn(k, theta)``: pure; a boolean mask with one entry per
      entry of ``cells``. The instance takes ownership of each mask, freezes
      it and memoizes it per ``(index, theta)`` for its life.
    - ``cells``: the sorted grid indices of the mask axis, so the game has
      ``n_cells = len(cells)``. A generator may leave out cells no agent can
      ever cover.
    - ``breakpoints(k, within)``: ascending arrays ``(starts, stops)`` such
      that agent ``k``'s count ``|coverage(k, theta) & within|`` does not
      fall while ``theta`` moves toward 0, until it passes a start (from
      above 0) or a stop (from below 0). The ends of the closed strategy
      intervals on which ``k`` covers each cell of ``within`` are such a
      set; :func:`best_response_gain` scores them.
    - ``masked_cell_counts(k, thetas, ends)``: that count for every entry
      of an ascending array of strategies, given the pair ``ends`` that
      ``breakpoints`` returned.

    The neighbor graph maps each active agent index to the set of active
    agents whose coverage can overlap its own; it must be symmetric and
    irreflexive. Build it with :func:`neighbor_graph_from_masks` from each
    active agent's exact ``reachable_mask(k)``, the cells it covers for some
    strategy of its interval, as the orbit kernel's
    :class:`~covgame.orbit.ConstellationCoverage` does; a graph written by
    hand must hold at least the pairs that one would.

    The graph must contain every pair that can ever cover a common cell: on
    the cells an agent can cover for some strategy (its reach), only its
    neighbors may cover too. :func:`best_response_gain` relies on this. It
    selects the cells no neighbor covers as those where a
    :class:`CoverCount` of all active agents equals the agent's own
    incumbent mask, which matches the OR of its neighbors' masks on every
    cell the agent can cover, and a scan reads no other cell.

    Besides the mask cache, the instance keeps one entry per active agent:
    its last exact best response and the neighbor strategies it answered,
    which :func:`best_response_gain` reuses while they stand still.
    """

    def __init__(
        self,
        agents: Sequence[AgentSpec],
        grid: TimeGrid,
        coverage_fn: CoverageFn,
        gamma: float,
        neighbor_graph: Mapping[int, Iterable[int]],
    ) -> None:
        self.agents = tuple(agents)
        self.grid = grid
        if getattr(coverage_fn, "cells", None) is None:
            raise TypeError("coverage_fn must expose cells")
        for name in ("breakpoints", "masked_cell_counts"):
            if not callable(getattr(coverage_fn, name, None)):
                raise TypeError(f"coverage_fn must expose {name}")
        self.coverage_fn = coverage_fn
        self.n_cells = len(coverage_fn.cells)
        self.gamma = float(gamma)
        indices = [a.index for a in self.agents]
        if indices != list(range(1, len(self.agents) + 1)):
            raise ValueError("agent indices must be contiguous and 1-based")
        self.active_indices: tuple[int, ...] = tuple(a.index for a in self.agents if a.active)
        active = set(self.active_indices)
        graph = {k: frozenset(neighbor_graph.get(k, ())) for k in self.active_indices}
        for k, neigh in graph.items():
            if k in neigh:
                raise ValueError(f"agent {k} cannot neighbor itself")
            for l in neigh:
                if l not in active:
                    raise ValueError(f"neighbor {l} of agent {k} is not active")
                if k not in graph[l]:
                    raise ValueError(f"neighbor graph is not symmetric at ({k},{l})")
        self.neighbor_graph: dict[int, frozenset[int]] = graph
        self._coverage_cache: dict[tuple[int, float], np.ndarray] = {}
        self._responses: dict[int, _Response] = {}

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def agent(self, index: int) -> AgentSpec:
        return self.agents[index - 1]

    def neighbors(self, index: int) -> frozenset[int]:
        return self.neighbor_graph[index]

    def coverage(self, index: int, theta: float) -> np.ndarray:
        """Memoized read-only coverage mask for agent ``index`` playing ``theta``."""
        key = (index, float(theta))
        hit = self._coverage_cache.get(key)
        if hit is not None:
            return hit
        mask = np.asarray(self.coverage_fn(index, float(theta)), dtype=bool)
        if mask.shape != (self.n_cells,):
            raise ValueError(
                f"coverage_fn returned a {mask.shape} mask for agent {index}: a foreign "
                f"grid, the game's has {self.n_cells} cells"
            )
        mask.flags.writeable = False
        self._coverage_cache[key] = mask
        return mask

    def validate_profile(self, profile: StrategyProfile) -> None:
        if len(profile) != self.n_agents:
            raise ValueError(
                f"profile has {len(profile)} entries for {self.n_agents} agents"
            )
        for a in self.agents:
            if a.active and not a.strategy_space.contains(profile.for_agent(a.index)):
                raise ValueError(
                    f"strategy {profile.for_agent(a.index)} of agent {a.index} "
                    f"is outside [{a.strategy_space.lo}, {a.strategy_space.hi}]"
                )


def energy_penalty(agent: AgentSpec, theta: float | np.ndarray) -> float | np.ndarray:
    """Quadratic maneuver cost ``(theta / theta_max) ** 2``, dimensionless.

    Elementwise on an array of strategies.
    """
    ratio = theta / agent.theta_max
    return ratio * ratio


def global_value(game: GameInstance, profile: StrategyProfile) -> float:
    """Union coverage of all active agents minus the scaled penalty sum, seconds.

    The compass search calls this once per probe, so it reads the profile
    once and makes no call per agent.
    """
    theta = profile.theta.tolist()
    sets = [game.coverage(k, theta[k - 1]) for k in game.active_indices]
    union = union_many(sets, game.n_cells)
    return covered_value(game, int(np.count_nonzero(union)), theta)


def covered_value(game: GameInstance, covered: int, theta: Sequence[float]) -> float:
    """The global objective given its count of covered cells, seconds.

    ``theta`` holds every agent's strategy, position ``index - 1``. The
    penalties are :func:`energy_penalty`'s, summed left to right from 0 in
    index order, as ``sum`` would: :func:`global_value` and the engine's
    per-round value share this arithmetic, so they agree bit for bit.
    """
    agents = game.agents
    penalty = 0
    for k in game.active_indices:
        ratio = theta[k - 1] / agents[k - 1].theta_max
        penalty += ratio * ratio
    return game.grid.dt * covered - game.gamma * penalty


def count_dtype(n_agents: int) -> np.dtype:
    """Smallest unsigned integer dtype that holds every count 0..``n_agents``."""
    return np.min_scalar_type(n_agents)


class CoverCount:
    """How many active agents cover each mask cell under one profile.

    ``counts`` has one entry per mask cell, in :func:`count_dtype` of the
    number of active agents, so no entry can overflow. ``covered`` is the
    number of nonzero entries, the cell count of the union of all active
    masks. The count is built once from a profile and then follows it
    through :meth:`adopt`.
    """

    def __init__(self, game: GameInstance, profile: StrategyProfile) -> None:
        theta = profile.theta.tolist()
        counts = np.zeros(game.n_cells, dtype=count_dtype(len(game.active_indices)))
        for k in game.active_indices:
            counts += game.coverage(k, theta[k - 1]).view(np.uint8)
        self.counts = counts
        self.covered = int(np.count_nonzero(counts))

    def alone(self, own: np.ndarray) -> np.ndarray:
        """Cells where the count equals the boolean mask ``own``.

        For an agent's incumbent mask these are the cells no other active
        agent covers.
        """
        return self.counts == own.view(np.uint8)

    def adopt(self, game: GameInstance, moves: Mapping[int, tuple[float, float]]) -> None:
        """Move each agent ``k`` of ``moves`` from strategy ``old`` to ``new``.

        ``moves`` maps ``k`` to ``(old, new)``; no two movers may be
        neighbors. Each mover's integer cell gain is read off the count
        before any update: the cells no other agent covers that it starts
        covering, minus those it stops covering. Movers share no cell, so
        these gains add, and the covered-cell count must rise by exactly
        their sum. This is the potential identity in whole cells.

        Raises:
            RuntimeError: if the covered cells moved by anything else, so the
                count no longer matches the profile.
        """
        masks = [
            (game.coverage(k, old), game.coverage(k, new)) for k, (old, new) in moves.items()
        ]
        gained = 0
        for was, now in masks:
            alone = self.alone(was)
            gained += int(np.count_nonzero(now & alone)) - int(np.count_nonzero(was & alone))
        counts = self.counts
        for was, now in masks:
            counts -= was.view(np.uint8)
            counts += now.view(np.uint8)
        covered = int(np.count_nonzero(counts))
        if covered - self.covered != gained:
            raise RuntimeError(
                f"covered cells moved by {covered - self.covered}, but the movers' "
                f"cell gains sum to {gained}: the cover count lost its profile"
            )
        self.covered = covered


def local_value(game: GameInstance, index: int, profile: StrategyProfile) -> float:
    """Local objective of agent ``index`` under ``profile``.

    Only the strategies of ``index`` and its graph neighbors are read.
    """
    if not game.agent(index).active:
        raise ValueError(f"agent {index} is not active")
    view = {l: profile.for_agent(l) for l in game.neighbors(index)}
    f, _ = best_response_objective(game, index, view)
    return f(profile.for_agent(index))


def regret(
    game: GameInstance, index: int, theta_new: float, profile: StrategyProfile
) -> float:
    """Local-objective change if ``index`` unilaterally switches to ``theta_new``."""
    view = {l: profile.for_agent(l) for l in game.neighbors(index)}
    f, _ = best_response_objective(game, index, view)
    return f(theta_new) - f(profile.for_agent(index))


def _local_objective(
    game: GameInstance, index: int, uncovered: np.ndarray, theta: float
) -> float:
    """The one local-objective formula, ``dt * count - gamma * penalty``.

    ``count`` is the number of cells of ``uncovered`` that agent ``index``
    covers playing ``theta``.
    """
    own = game.coverage(index, theta)
    gain = game.grid.dt * float(np.count_nonzero(own & uncovered))
    return gain - game.gamma * energy_penalty(game.agent(index), theta)


def best_response_objective(
    game: GameInstance, index: int, neighbor_thetas: Mapping[int, float]
) -> tuple[Callable[[float], float], np.ndarray]:
    """Local objective of one agent with its neighbors frozen.

    The information-restricted entry point: it reads nothing beyond the
    supplied neighbor strategies, which must cover every graph neighbor of
    ``index``. The neighbor union is fixed while one agent varies its own
    strategy, so it is folded once; each scalar evaluation then costs one
    coverage mask and one masked count.

    Returns ``(f, uncovered)``: the scalar objective, and the mask of cells
    no neighbor covers, which is what ``f`` counts.
    """
    neighbor_sets = [
        game.coverage(l, neighbor_thetas[l]) for l in sorted(game.neighbors(index))
    ]
    uncovered = ~union_many(neighbor_sets, game.n_cells)
    return partial(_local_objective, game, index, uncovered), uncovered


class _Response(NamedTuple):
    """An agent's last exact best response, with what it was computed from.

    ``neighbors`` holds the neighbor strategies in ascending neighbor order
    and ``uncovered`` the cells selected as covered by none of them, exact on
    every cell the agent can cover. The entry holds no
    reference to the game, so storing it on the game makes no cycle.
    """

    neighbors: tuple[float, ...]
    uncovered: np.ndarray
    theta_star: float
    best: float


def best_response_gain(
    game: GameInstance,
    index: int,
    neighbor_thetas: Mapping[int, float],
    theta: float,
    cover: CoverCount,
) -> tuple[float, float]:
    """Exact best response of agent ``index`` to frozen neighbors, and its gain.

    ``cover`` is the :class:`CoverCount` of the profile in which the agent
    plays ``theta`` and its neighbors play ``neighbor_thetas``. The cells no
    neighbor covers are those where the count equals the agent's own
    incumbent mask; by the graph contract of :class:`GameInstance` these
    are, on every cell the agent can cover, the cells outside the OR of its
    neighbors' masks, so no fold over the neighbors runs.

    The agent's count of uncovered cells changes only at the closed ends of
    those cells' covering intervals, which the generator's ``breakpoints``
    lists, and the penalty is even and rises with ``|theta|``. Let ``z`` be
    the point of the strategy interval ``[lo, hi]`` nearest 0. From any
    strategy above ``z``, moving down to the nearest start at or below it
    (or to ``z``) keeps every cell and costs no more, and symmetrically
    below ``z``. So a maximizer lies among the stops in ``[lo, z)``, ``z``
    and the starts in ``(z, hi]``; the ends come ascending, so these three
    lists are already in order, and scoring them all, in one
    ``masked_cell_counts`` call, is exact. Equal candidates score equally,
    so repeats leave the first maximizer alone.

    The best response depends on the neighbor strategies only, so the game
    keeps each agent's last one: each neighbor strategy is read once, and
    while they all equal those of the agent's last scan, the stored
    maximizer is returned without a scan; otherwise the agent scans and
    replaces its entry.

    Returns ``(theta_star, gain)``: the first maximizer in ascending order
    and its local-objective improvement over ``theta``, which is never
    negative.
    """
    order = sorted(game.neighbors(index))
    neighbors = tuple(neighbor_thetas[l] for l in order)
    response = game._responses.get(index)
    if response is None or response.neighbors != neighbors:
        uncovered = cover.alone(game.coverage(index, theta))
        agent = game.agent(index)
        space = agent.strategy_space
        starts, stops = ends = game.coverage_fn.breakpoints(index, uncovered)
        z = min(max(0.0, space.lo), space.hi)
        below = stops[np.searchsorted(stops, space.lo) : np.searchsorted(stops, z)]
        above = starts[
            np.searchsorted(starts, z, "right") : np.searchsorted(starts, space.hi, "right")
        ]
        candidates = np.concatenate((below, [z], above))
        dt, gamma = game.grid.dt, game.gamma
        cell_counts = game.coverage_fn.masked_cell_counts

        def objective(thetas: np.ndarray) -> np.ndarray:
            gains = dt * cell_counts(index, thetas, ends)
            return gains - gamma * energy_penalty(agent, thetas)

        theta_star, best = maximize_scalar(objective, candidates)
        response = _Response(neighbors, uncovered, theta_star, best)
        game._responses[index] = response
    gain = response.best - _local_objective(game, index, response.uncovered, theta)
    return response.theta_star, gain


def neighbor_graph_from_masks(reach: Mapping[int, np.ndarray]) -> dict[int, frozenset[int]]:
    """Neighbor graph linking every two agents whose reach masks intersect.

    ``reach`` maps each active agent to the cells it can cover for some
    admissible strategy; the masks share one length. Each mask is packed to
    bits in 64-bit words, and every agent's row is ANDed against the rows of
    all agents after it at once, so the test of one pair costs a word per 64
    cells. Links are added in the order of a pairwise scan over the sorted
    agents, which gives every neighbor set the same content and history.
    """
    graph: dict[int, set[int]] = {k: set() for k in reach}
    indices = sorted(reach)
    if indices:
        bits = np.packbits(np.stack([reach[k] for k in indices]), axis=1)
        words = np.zeros((len(indices), -(-bits.shape[1] // 8)), dtype=np.uint64)
        words.view(np.uint8)[:, : bits.shape[1]] = bits
        for i, k in enumerate(indices):
            for j in np.flatnonzero(np.any(words[i + 1 :] & words[i], axis=1)):
                l = indices[i + 1 + j]
                graph[k].add(l)
                graph[l].add(k)
    return {k: frozenset(v) for k, v in graph.items()}


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of an equilibrium check.

    ``worst_gain`` is the largest unilateral local-objective improvement over
    all active agents (0 when there are none); the profile is certified iff
    it does not exceed ``epsilon``.
    """

    certified: bool
    epsilon: float
    worst_agent: int | None
    worst_gain: float
    gains: dict[int, float] = field(default_factory=dict)


def certify_epsilon_equilibrium(
    game: GameInstance,
    profile: StrategyProfile,
    epsilon: float,
    cover: CoverCount | None = None,
) -> CertificationReport:
    """Check that no active agent can gain more than ``epsilon`` unilaterally.

    Each agent's gain is its exact best-response gain against the frozen
    strategies of its neighbors (see :func:`best_response_gain`), so the
    verdict does not depend on any sampling of the strategy interval.
    ``cover`` is the :class:`CoverCount` of ``profile``, built here when a
    caller that keeps one does not pass it.
    """
    if not (0.0 < epsilon < np.inf):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    game.validate_profile(profile)
    if cover is None:
        cover = CoverCount(game, profile)
    gains: dict[int, float] = {}
    worst_agent: int | None = None
    worst_gain = -np.inf
    for k in game.active_indices:
        view = {l: profile.for_agent(l) for l in game.neighbors(k)}
        _, gain = best_response_gain(game, k, view, profile.for_agent(k), cover)
        gains[k] = gain
        if gain > worst_gain:
            worst_gain = gain
            worst_agent = k
    if not gains:
        worst_gain = 0.0
    certified = worst_gain <= epsilon
    return CertificationReport(
        certified=certified,
        epsilon=epsilon,
        worst_agent=worst_agent,
        worst_gain=float(worst_gain),
        gains=gains,
    )
