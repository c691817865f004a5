"""Coverage game objects: strategy spaces, objectives, neighbor graph, regret.

The game couples a per-agent coverage generator with a quadratic energy
penalty. The generator maps an agent's scalar strategy to the positions it
covers among its ``cells``, sorted indices of the cells of a
:class:`~covgame.measure.TimeGrid`, so every measure is ``dt`` times a
count. It also scores
in one call every strategy at which an agent's count of some cells can
change, within bounds (``scan``), and counts those cells for any ascending
strategies against the ends a scan returned (``masked_cell_counts``);
:class:`GameInstance` states the protocol. The
global objective is the measure of the union of all active agents' coverage
minus the scaled penalty sum; each agent's local objective is the measure of
its coverage exclusive of its graph neighbors minus its own penalty. A
:class:`GameInstance` derives its neighbor graph itself, with
:func:`neighbor_positions_from_reaches` over each active agent's exact reach,
the cells it covers for some admissible strategy, so the graph holds every
pair whose coverages can ever overlap, and a unilateral strategy change moves
both objectives by exactly the same amount, which is what the distributed
search engine relies on. The graph is held once, as arrays of neighbor
positions, which every gather, the election, the gates and the audit read.
A :class:`CoverCount` is the one mutable state of a run: its strategies,
its coverage as an integer count per cell, built and moved by covered
positions, each active agent's positions, and the memo of each agent's
last best response. A profile is validated once, where it enters a cover.
The engine keeps one per run; a best response and a certificate take only
that count, and read from it the agent's strategy, its neighbors' and its
uncovered cells; and the run's value is read off it, so the distributed
engine builds no mask. The masks, which :meth:`GameInstance.coverage`
scatters from covered positions and memoizes, serve :func:`global_value`
and the mask-based local objective; that memo is all the game keeps
besides what it was built from.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .measure import TimeGrid, union_many
from .optimize import maximize_scalar

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
    """Bundle of agents, coverage generator, penalty scale and graph.

    It is immutable apart from the memo of coverage masks behind
    :meth:`coverage`, so runs of any method may share one instance: each
    keeps its own state in a :class:`CoverCount`.

    The coverage generator ``coverage_fn`` must expose, and the constructor
    checks (a missing member raises ``TypeError`` naming it):

    - ``cells``: the sorted grid indices of the mask axis, so the game has
      ``n_cells = len(cells)``. A generator may leave out cells no agent can
      ever cover.
    - ``covered_positions(k, theta)``: pure; the positions of the cells
      agent ``k`` covers playing ``theta``, each once, as integers in
      ``range(n_cells)`` in any order, in a fresh array whose ownership
      passes to the caller. A :class:`CoverCount` freezes and keeps each
      active agent's, and :meth:`coverage` scatters its masks from them.
    - ``scan(k, within, lo, z, hi)``: ``within`` is a boolean row mask
      with one entry per entry of ``reach_positions(k)``, true where the
      cell at that position counts; entries at a repeated position agree.
      It selects ascending arrays ``ends = (starts, stops)`` such that
      agent ``k``'s count of covered cells among those marked does not
      fall while ``theta`` moves toward 0, until it passes a start (from
      above 0) or a stop (from below 0); the ends of the closed strategy
      intervals on which ``k`` covers each marked cell are such a set.
      Given ``lo <= z <= hi``, it returns ``(candidates, counts, ends)``:
      the ascending candidates, the stops in ``[lo, z)``, then ``z``, then
      the starts in ``(z, hi]``, and a count for each. The count is exact
      at ``z``, at the first of equal stops and at the last of equal starts;
      at their other copies, which share that ``theta``, it may be lower, so
      the first maximum of any objective that rises with the count is that
      of exact counts. :func:`best_response_gain` scores them.
    - ``masked_cell_counts(k, thetas, ends)``: that count, exactly, for
      every entry of an ascending array of strategies, given the pair
      ``ends`` that ``scan`` returned.
    - ``reach_positions(k)``: the mask positions of the cells ``k`` covers
      for some strategy of its interval (its reach), exactly, in a fixed
      order and possibly repeated. ``scan`` and ``masked_cell_counts`` count
      no other cell.

    The constructor reads each active agent's reach once and keeps it in
    ``reach_positions``, keyed by agent index. From those reaches it derives
    the neighbor graph, ``neighbor_positions``
    (:func:`neighbor_positions_from_reaches`): for each active agent, the
    0-based profile positions of the active agents whose reach meets its
    own, in ascending order, as a read-only ``np.intp`` array. The graph is
    symmetric, irreflexive and holds every pair whose coverage can ever
    overlap, by construction, and an agent pulls its neighbors' strategies
    as one gather of its :class:`CoverCount`'s strategies,
    ``cover.theta[game.neighbor_positions[k]]``.

    On an agent's reach only its neighbors may cover too, and
    :func:`best_response_gain` relies on this. It selects the cells no
    neighbor covers as those where a :class:`CoverCount` of all active
    agents equals the agent's own incumbent flags, both read at its
    ``reach_positions`` alone; there this matches the OR of its neighbors'
    masks, and the result is the row mask that ``scan`` takes. The
    flags come from the agent's positions in that count
    (``CoverCount.positions``), marked on the count's buffer of ``n_cells``
    zeros.
    """

    def __init__(
        self,
        agents: Sequence[AgentSpec],
        grid: TimeGrid,
        coverage_fn: Any,
        gamma: float,
    ) -> None:
        self.agents = tuple(agents)
        self.grid = grid
        if getattr(coverage_fn, "cells", None) is None:
            raise TypeError("coverage_fn must expose cells")
        for name in ("covered_positions", "scan", "masked_cell_counts", "reach_positions"):
            if not callable(getattr(coverage_fn, name, None)):
                raise TypeError(f"coverage_fn must expose {name}")
        self.coverage_fn = coverage_fn
        self.n_cells = len(coverage_fn.cells)
        self.gamma = float(gamma)
        indices = [a.index for a in self.agents]
        if indices != list(range(1, len(self.agents) + 1)):
            raise ValueError("agent indices must be contiguous and 1-based")
        self.active_indices: tuple[int, ...] = tuple(a.index for a in self.agents if a.active)
        self.reach_positions: dict[int, np.ndarray] = {
            k: coverage_fn.reach_positions(k) for k in self.active_indices
        }
        self.neighbor_positions = neighbor_positions_from_reaches(self.reach_positions, self.n_cells)
        self._coverage_cache: dict[tuple[int, float], np.ndarray] = {}

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def agent(self, index: int) -> AgentSpec:
        return self.agents[index - 1]

    def neighbors(self, index: int) -> frozenset[int]:
        """Agent ``index``'s neighbors as 1-based indices, built on each call.

        For callers outside the package; the package itself reads
        ``neighbor_positions``.
        """
        return frozenset((self.neighbor_positions[index] + 1).tolist())

    def coverage(self, index: int, theta: float) -> np.ndarray:
        """Memoized read-only coverage mask for agent ``index`` playing ``theta``.

        The mask has one entry per cell, true at the generator's
        ``covered_positions``.
        """
        key = (index, float(theta))
        hit = self._coverage_cache.get(key)
        if hit is not None:
            return hit
        mask = np.zeros(self.n_cells, dtype=bool)
        mask[self.coverage_fn.covered_positions(*key)] = True
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


def _frozen_positions(game: GameInstance, index: int, theta: float) -> np.ndarray:
    """The generator's covered positions of agent ``index`` at ``theta``, read-only."""
    positions = game.coverage_fn.covered_positions(index, float(theta))
    positions.flags.writeable = False
    return positions


def count_dtype(n_agents: int) -> np.dtype:
    """Smallest unsigned integer dtype that holds every count 0..``n_agents``."""
    return np.min_scalar_type(n_agents)


class CoverCount:
    """How many active agents cover each mask cell under one profile.

    The count is the whole mutable state of one run. ``theta`` holds the
    strategies it counts: a writable copy of the profile's strategy vector,
    one float per agent at position ``index - 1``, with the inactive
    agents' entries set to 0. The profile is validated on the way in
    (:meth:`GameInstance.validate_profile`, ``ValueError``). ``counts`` has
    one entry per mask cell, in :func:`count_dtype` of the number of active
    agents, so no entry can overflow. ``covered`` is the number of nonzero
    entries, the cell count of the union of all active agents' coverage.
    ``positions`` maps each active agent's index to the generator's
    ``covered_positions`` at its strategy, read-only; it is the one place
    that holds them. The count is built once from a profile, by adding one
    at each active agent's positions, which never repeat, and then follows
    it through :meth:`adopt`, the only writer of ``theta``, which reads and
    moves the count at the movers' positions alone; no mask is built.

    The count also keeps what :func:`best_response_gain` reuses between
    calls on it: one entry per active agent for its last exact best
    response (:class:`_Response`), keyed twice on what it was computed
    from, and one buffer of ``n_cells`` zeros on which an agent's own
    flags are marked (:meth:`_own_flags`). A new count starts with no
    entry, so two runs on one game make the same scans.
    """

    def __init__(self, game: GameInstance, profile: StrategyProfile) -> None:
        game.validate_profile(profile)
        self._responses: dict[int, _Response] = {}
        self._marks = np.zeros(game.n_cells, dtype=np.uint8)
        self.theta = np.zeros(game.n_agents)
        counts = np.zeros(game.n_cells, dtype=count_dtype(len(game.active_indices)))
        self.positions: dict[int, np.ndarray] = {}
        for k in game.active_indices:
            self.theta[k - 1] = profile.theta[k - 1]
            self.positions[k] = _frozen_positions(game, k, self.theta[k - 1])
            counts[self.positions[k]] += 1
        self.counts = counts
        self.covered = int(np.count_nonzero(counts))

    def _own_flags(self, positions: np.ndarray, at: np.ndarray) -> np.ndarray:
        """One ``uint8`` per entry of ``at``: 1 where that position is in ``positions``.

        ``positions`` are one agent's covered positions, so these are its
        mask's entries at ``at``, and entries at a repeated position agree.
        They are read off the count's buffer of ``n_cells`` zeros, marked at
        ``positions`` and cleared again, so nothing of ``n_cells`` entries
        is allocated.
        """
        marks = self._marks
        marks[positions] = 1
        try:
            return marks[at]
        finally:
            marks[positions] = 0

    def adopt(self, game: GameInstance, moves: Mapping[int, float]) -> None:
        """Move each agent ``k`` of ``moves`` to its new strategy ``moves[k]``.

        No two movers may be neighbors. Each mover's old covered positions
        are those the count holds, and its new ones are read from the
        generator once and replace them, as ``moves[k]`` replaces its entry
        of ``theta``. Each mover's integer cell gain is
        read off the count at its old and new positions, for every mover
        before any update: the cells no other agent covers that it starts
        covering, minus those it stops covering. Movers share no cell, so
        these gains add, and the covered-cell count, a count of the nonzero
        entries over every cell, must rise by exactly their sum. This is the
        potential identity in whole cells.

        Raises:
            RuntimeError: if the covered cells moved by anything else, so the
                count no longer matches the profile.
        """
        steps = {k: _frozen_positions(game, k, new) for k, new in moves.items()}
        counts, positions = self.counts, self.positions
        gained = 0
        for k, now in steps.items():
            was = positions[k]
            # A cell the mover already covers at its old strategy counts the
            # mover itself.
            alone_now = counts[now] == self._own_flags(was, now)
            gained += int(np.count_nonzero(alone_now)) - int(np.count_nonzero(counts[was] == 1))
        for k, now in steps.items():
            counts[positions[k]] -= 1
            counts[now] += 1
            positions[k] = now
            self.theta[k - 1] = moves[k]
        covered = int(np.count_nonzero(counts))
        if covered - self.covered != gained:
            raise RuntimeError(
                f"covered cells moved by {covered - self.covered}, but the movers' "
                f"cell gains sum to {gained}: the cover count lost its profile"
            )
        self.covered = covered


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


# Test-only, with _local_objective; kept for perfbench/tracer.py SPANS until ROADMAP item A.
def best_response_objective(
    game: GameInstance, index: int, neighbor_thetas: np.ndarray
) -> tuple[Callable[[float], float], np.ndarray]:
    """Local objective of one agent with its neighbors frozen.

    The information-restricted entry point: it reads nothing beyond
    ``neighbor_thetas``, the gather of the neighbors' strategies at
    ``game.neighbor_positions[index]``, one per graph neighbor of ``index``
    in ascending order (``ValueError`` if the count differs). The neighbor
    union is fixed while one agent varies its own strategy, so it is folded
    once, in neighbor order; each scalar evaluation then costs one coverage
    mask and one masked count.

    Returns ``(f, uncovered)``: the scalar objective, and the mask of cells
    no neighbor covers, which is what ``f`` counts.
    """
    pairs = zip(game.neighbor_positions[index].tolist(), neighbor_thetas.tolist(), strict=True)
    neighbor_sets = [game.coverage(l + 1, t) for l, t in pairs]
    uncovered = ~union_many(neighbor_sets, game.n_cells)
    return partial(_local_objective, game, index, uncovered), uncovered


class _Response(NamedTuple):
    """An agent's last exact best response, with what it was computed from.

    ``neighbors`` is the gathered array of neighbor strategies it last
    answered, in ascending neighbor order. ``theta`` is the agent's
    strategy at its last gather and ``own`` that strategy's mask read at
    the agent's ``reach_positions`` (:meth:`CoverCount._own_flags`), one
    ``uint8`` per entry, kept so that a later gather at the same strategy
    reads only the count.
    ``uncovered`` holds one boolean per entry of the ``reach_positions``,
    true where no neighbor covered that cell when the agent last scanned;
    ``ends`` is the ``(starts, stops)`` pair that ``scan`` selected, from which
    any incumbent's count is read. ``theta_star`` is the first maximizer
    and ``best`` its local objective. The entry holds no reference to the
    count that stores it, so storing it makes no cycle.
    """

    neighbors: np.ndarray
    theta: float
    own: np.ndarray
    uncovered: np.ndarray
    ends: tuple[np.ndarray, np.ndarray]
    theta_star: float
    best: float


def best_response_gain(
    game: GameInstance, index: int, cover: CoverCount
) -> tuple[float, float]:
    """Exact best response of agent ``index`` to frozen neighbors, and its gain.

    ``cover`` is the :class:`CoverCount` of the profile, and everything is
    read from it: the agent's incumbent strategy ``cover.theta[index - 1]``,
    its neighbors' strategies as one gather of ``cover.theta`` at
    ``game.neighbor_positions[index]``, in ascending neighbor order, and
    the count itself.
    The cells no neighbor covers are those where the count equals the
    agent's own incumbent flags (:meth:`CoverCount._own_flags`, marked from
    the agent's positions in the count, ``cover.positions[index]``); since the
    graph links every two
    agents whose reaches meet (see :class:`GameInstance`), these are, on
    every cell the agent can cover, the cells outside the OR of its
    neighbors' masks, so no fold over the neighbors runs. The count is read
    at the agent's ``reach_positions`` only, and the resulting row mask is
    what the generator's ``scan`` takes, so no array of ``n_cells`` entries
    is read or built.

    The agent's count of uncovered cells changes only at the closed ends of
    those cells' covering intervals, which ``scan`` selects, and the
    penalty is even and rises with ``|theta|``. Let ``z`` be the point of
    the strategy interval ``[lo, hi]`` nearest 0. From any strategy above
    ``z``, moving down to the nearest start at or below it (or to ``z``)
    keeps every cell and costs no more, and symmetrically below ``z``. So a
    maximizer lies among the stops in ``[lo, z)``, ``z`` and the starts in
    ``(z, hi]``, which ``scan`` returns in ascending order with a count
    for each. This adds the penalty to ``dt`` times those counts and takes
    the first maximum (:func:`~covgame.optimize.maximize_scalar`), which is
    exact: a count falls short only at a copy of an equal end whose exact
    copy scores the true value, and a copy shares its ``theta``, so the
    first maximizer and its value are those of exact counts.

    The best response depends only on the uncovered cells of the agent's
    reach, since ``scan`` and ``masked_cell_counts`` read no other cell, so
    ``cover`` keeps each agent's last one under two keys (see
    :class:`_Response`): the gathered array of neighbor strategies it
    answered, and the agent's uncovered cells read at its
    ``reach_positions``. While the gathered neighbor strategies equal the
    stored array elementwise (under which ``-0.0`` equals ``0.0`` and NaN
    equals nothing), the stored answer is returned without reading the
    count. Otherwise the count is read at the agent's ``reach_positions``,
    and so are its incumbent flags unless the entry holds them for the
    incumbent already:
    if the uncovered cells there equal the stored ones, a neighbor moved
    off the agent's reach, and the stored answer is returned and takes the
    new gather as its first key. Only if both keys miss does the agent
    select its rows and score them, and replace its entry.

    The incumbent's local objective is one ``masked_cell_counts`` call at
    its strategy against the stored ends: the cells of its own mask that no
    neighbor covers. An incumbent equal to the stored maximizer needs none:
    its value would be the same arithmetic on the same exact count as
    ``best``, so its gain is exactly ``0.0``.

    Returns ``(theta_star, gain)``: the first maximizer in ascending order
    and its local-objective improvement over the incumbent, which is never
    negative.
    """
    agent = game.agent(index)
    theta = float(cover.theta[index - 1])
    neighbor_thetas = cover.theta[game.neighbor_positions[index]]
    response = cover._responses.get(index)
    if response is None or not (response.neighbors == neighbor_thetas).all():
        reach = game.reach_positions[index]
        if response is not None and response.theta == theta:
            own = response.own
        else:
            own = cover._own_flags(cover.positions[index], reach)
        uncovered = cover.counts[reach] == own
        if response is not None and (response.uncovered == uncovered).all():
            response = response._replace(neighbors=neighbor_thetas, theta=theta, own=own)
        else:
            space = agent.strategy_space
            z = min(max(0.0, space.lo), space.hi)
            candidates, counts, ends = game.coverage_fn.scan(
                index, uncovered, space.lo, z, space.hi
            )
            dt, gamma = game.grid.dt, game.gamma

            def objective(thetas: np.ndarray) -> np.ndarray:
                return dt * counts - gamma * energy_penalty(agent, thetas)

            theta_star, best = maximize_scalar(objective, candidates)
            response = _Response(
                neighbor_thetas, theta, own, uncovered, ends, theta_star, best
            )
        cover._responses[index] = response
    if theta == response.theta_star:
        return response.theta_star, 0.0
    alone = game.coverage_fn.masked_cell_counts(index, np.array([theta]), response.ends)
    incumbent = game.grid.dt * float(alone[0]) - game.gamma * energy_penalty(agent, theta)
    return response.theta_star, response.best - incumbent


def neighbor_positions_from_reaches(
    reach_positions: Mapping[int, np.ndarray], n_cells: int
) -> dict[int, np.ndarray]:
    """Neighbor graph linking every two agents whose reaches meet.

    ``reach_positions`` maps each agent's 1-based index to the mask
    positions of its reach, integers in ``range(n_cells)`` in any order and
    possibly repeated. Each reach is packed into its row of 64-bit words,
    one bit per cell, through one boolean row of the cells that every agent
    reuses. Each row is then ANDed against all rows after it at once, on
    the words where it has a bit, since a pair can meet nowhere else; the
    pairs found fill a dense agents-by-agents matrix, which is mirrored.

    Returns, for each agent in ascending index order, the 0-based profile
    positions (``index - 1``) of its neighbors in ascending order, as a
    read-only ``np.intp`` array: consecutive slices of one array, which
    holds the whole graph. The graph is symmetric and irreflexive.
    """
    indices = sorted(reach_positions)
    words = np.zeros((len(indices), -(-n_cells // 64)), dtype=np.uint64)
    marks = np.zeros(n_cells, dtype=bool)
    for row, k in zip(words, indices):
        marks[reach_positions[k]] = True
        packed = np.packbits(marks, bitorder="little")
        row.view(np.uint8)[: packed.size] = packed
        marks[:] = False
    linked = np.zeros((len(indices), len(indices)), dtype=bool)
    for i, row in enumerate(words):
        cols = np.flatnonzero(row)
        linked[i, i + 1 :] = np.any(words[i + 1 :, cols] & row[cols], axis=1)
    linked |= linked.T
    flat = np.broadcast_to(np.array(indices, dtype=np.intp) - 1, linked.shape)[linked]
    flat.flags.writeable = False
    ends = np.cumsum(linked.sum(axis=1)).tolist()
    return {k: flat[start:end] for k, start, end in zip(indices, [0, *ends], ends)}


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
    game: GameInstance, cover: CoverCount, epsilon: float
) -> CertificationReport:
    """Check that no active agent can gain more than ``epsilon`` unilaterally.

    The strategies checked are those ``cover`` holds. Each agent's gain is
    its exact best-response gain against the frozen strategies of its
    neighbors (see :func:`best_response_gain`), so the verdict does not
    depend on any sampling of the strategy interval.
    """
    if not (0.0 < epsilon < np.inf):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    gains = {k: best_response_gain(game, k, cover)[1] for k in game.active_indices}
    # The first agent with the largest gain.
    worst_agent = max(gains, key=gains.__getitem__, default=None)
    worst_gain = 0.0 if worst_agent is None else float(gains[worst_agent])
    return CertificationReport(
        certified=worst_gain <= epsilon,
        epsilon=epsilon,
        worst_agent=worst_agent,
        worst_gain=worst_gain,
        gains=gains,
    )
