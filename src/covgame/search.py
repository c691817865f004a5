"""Synchronous distributed search for a coverage-game equilibrium.

Agents run in lockstep rounds. In each round the gated agents compute a best
response against their neighbors' last exchanged strategies and report the
improvement ("regret"); after a regret exchange, only agents whose regret
exceeds ``epsilon`` and dominates their whole neighborhood (ties to the
smallest index) adopt their proposal. Since no two adopters are ever
neighbors, the global objective rises by exactly the sum of adopted regrets,
which yields convergence to an epsilon-equilibrium in finitely many rounds.

An agent's whole state is its strategy and its gate, so the engine carries
exactly these: the cover count, which holds the strategies, and the gates
``zeta`` of the previous round's trace. A round takes the two and returns
only its trace; the run builds its final profile once, from the count. The
gate skips the expensive best-response step for agents whose whole
neighborhood was quiet in the previous round, so rounds after convergence
scan nothing. The regret exchange is event-driven: an agent sends its
regret to its neighbors only when it exceeds ``epsilon``, and silence means
"quiet". The election runs over the loud agents alone, and the open gates
are the loud agents and their neighbors, so a round without a loud agent
exchanges nothing and moves no strategy: with 240 satellites it costs about
0.1 ms on a 2-core Xeon with Python 3.11.

A run keeps one :class:`~covgame.game.CoverCount` of its profile, its only
mutable state, built and moved by the generator's covered positions. The
count also keeps each agent's last best response, so a run leaves nothing
on the game. Every best response reads its strategy, its neighbors' and its
uncovered cells from the count, each round's adoptions update its
strategies and its count at the innovators' old and new positions and check
the potential identity in whole cells, and the round's ``phi`` is read off
its covered-cell count. So the engine builds no mask as long as the grid,
and the last round's ``phi`` is the run's value. A gated agent scans only
if its uncovered cells moved: it keeps its last answer while its neighbors'
strategies stand still, and also while they move only on cells it cannot
cover (see :func:`~covgame.game.best_response_gain`).

The graph is the game's ``neighbor_positions``: for each active agent, its
neighbors' 0-based profile positions in ascending order. The pulls, the
regret exchange, the election, the gates and the audit all read it. All
inter-agent information flow goes through explicit per-round exchanges:
each gated agent pulls its neighbors' strategies as one gather of the cover
count's strategies at its ``neighbor_positions``, and loud agents send
regret messages to theirs. An update never reads state beyond the agent
itself and its graph neighbors, and an :class:`AccessAudit` can record
every cross-agent read: one per neighbor strategy pulled, and one per
message.
The cover count is shared, but on the cells an agent can cover only the
agent and its neighbors are counted, since
:class:`~covgame.game.GameInstance` derives the graph from the agents'
reaches and links every two whose reaches meet, and a best response reads
no other cell, so it carries no information beyond the neighbors'
strategies.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .game import (
    CertificationReport,
    CoverCount,
    GameInstance,
    StrategyProfile,
    best_response_gain,
    certify_epsilon_equilibrium,
    covered_value,
)


@dataclass(frozen=True)
class SearchConfig:
    """Engine settings: accuracy and round budget."""

    epsilon: float
    max_rounds: int

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < math.inf):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")


@dataclass(frozen=True)
class RoundTrace:
    """Record of one synchronous round.

    ``phi`` is the global objective after the round's adoptions. ``zetas``
    holds one gate per active agent, the gate state the next round reads.
    ``wall_time`` covers the agents' computations and exchanges, and the
    update of the run's cover count; reading ``phi`` off that count for this
    record is diagnostic and not charged to the round.
    """

    iteration: int
    phi: float
    innovators: tuple[int, ...]
    regrets: dict[int, float]
    zetas: dict[int, bool]
    wall_time: float

    @property
    def max_regret(self) -> float:
        return max(self.regrets.values(), default=0.0)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a full engine run."""

    final_profile: StrategyProfile
    converged_at: int | None
    traces: tuple[RoundTrace, ...]
    certified: bool
    certification: CertificationReport


class AccessAudit:
    """Recorder of cross-agent state reads made during a run."""

    def __init__(self) -> None:
        self.reads: list[tuple[int, int, str]] = []

    def record(self, reader: int, owner: int, kind: str) -> None:
        self.reads.append((reader, owner, kind))

    def violations(self, graph: Mapping[int, np.ndarray]) -> list[tuple[int, int, str]]:
        """Reads of state owned by neither the reader nor one of its neighbors.

        ``graph`` is the neighbor graph as
        :attr:`~covgame.game.GameInstance.neighbor_positions` holds it: each
        reader's neighbors as 0-based profile positions, ``index - 1``.
        """
        return [
            (reader, owner, kind)
            for reader, owner, kind in self.reads
            if owner != reader and owner - 1 not in graph[reader]
        ]


def _send_regrets(
    regrets: Mapping[int, float],
    neighbor_positions: Mapping[int, np.ndarray],
    epsilon: float,
    audit: AccessAudit | None,
) -> dict[int, float]:
    """The regret exchange: each loud agent sends its regret to its neighbors.

    An agent is loud iff its regret exceeds ``epsilon``; a quiet agent sends
    nothing, and its silence means "at most ``epsilon``". Every regret is
    checked first, so a NaN cannot pass for quiet. ``neighbor_positions``
    maps each agent to its neighbors' ascending 0-based profile positions,
    as :attr:`~covgame.game.GameInstance.neighbor_positions` does. ``audit``
    records each message once, as a ``"regret"`` read of the sender by the
    receiver, receivers in ascending order.

    Returns the loud agents' regrets: every message sent, keyed by sender.

    Raises:
        ValueError: if some regret is not finite.
    """
    loud: dict[int, float] = {}
    for k, r_k in regrets.items():
        if not math.isfinite(r_k):
            raise ValueError(f"regret of agent {k} is not finite")
        if r_k > epsilon:
            loud[k] = r_k
    if audit is not None:
        for k in loud:
            for l in neighbor_positions[k].tolist():
                audit.record(l + 1, k, "regret")
    return loud


def _elect(
    loud: Mapping[int, float], neighbor_positions: Mapping[int, np.ndarray]
) -> tuple[int, ...]:
    """The loud agents that no message from a loud neighbor beats.

    ``neighbor_positions`` is the graph as :func:`_send_regrets` takes it.
    A loud agent qualifies iff its regret is at least every regret it
    received, and no smaller-indexed neighbor sent the same value. A quiet
    neighbor's regret is at most ``epsilon``, below every loud one, so it
    can never beat the agent, and its silence decides nothing. Ties use
    exact float equality: plateau objectives genuinely produce them, and
    the index rule is the deterministic tie-break.
    """
    elected = []
    for k, r_k in loud.items():
        for l in neighbor_positions[k].tolist():
            r_l = loud.get(l + 1)
            if r_l is not None and (r_l > r_k or (r_l == r_k and l + 1 < k)):
                break
        else:
            elected.append(k)
    return tuple(sorted(elected))


def elect_innovators(
    regrets: Mapping[int, float],
    neighbor_positions: Mapping[int, np.ndarray],
    epsilon: float,
    audit: AccessAudit | None = None,
) -> tuple[int, ...]:
    """Agents allowed to adopt their proposal this round.

    Only agents whose regret exceeds ``epsilon`` send it, and the election
    runs over them alone: each decides from its own regret and those its
    loud neighbors sent it. An agent qualifies iff its regret is at least
    every neighbor's and no smaller-indexed neighbor ties it exactly; two
    elected agents are therefore never neighbors. ``audit`` records one
    ``"regret"`` read per message, that is per loud agent and neighbor.

    ``neighbor_positions`` is the graph as
    :attr:`~covgame.game.GameInstance.neighbor_positions` holds it: for
    each agent with a regret, its neighbors' 0-based profile positions,
    ``index - 1``, in ascending order.

    Raises:
        ValueError: if some regret, loud or quiet, is not finite.
    """
    return _elect(_send_regrets(regrets, neighbor_positions, epsilon, audit), neighbor_positions)


def run_round(
    game: GameInstance,
    zetas: Mapping[int, bool],
    cover: CoverCount,
    cfg: SearchConfig,
    iteration: int = 0,
    audit: AccessAudit | None = None,
) -> RoundTrace:
    """Execute one synchronous round on ``cover`` and return its trace.

    Phases: (a) each agent whose gate in ``zetas`` is open pulls its
    neighbors' strategies and computes a best response and its regret
    (:func:`~covgame.game.best_response_gain`, which reads both off
    ``cover``), the others report zero regret; (b) every regret is checked
    finite, and each loud agent, one whose regret exceeds ``epsilon``,
    sends it to its neighbors, while quiet agents send nothing; (c) the
    loud agents elect the innovators among themselves (see
    :func:`elect_innovators`), who adopt their proposals; (d) everyone else
    keeps its strategy, and an agent's gate stays open for the next round
    iff it or a neighbor was loud, so the open gates are the loud agents
    and their neighbor sets. ``audit``
    records one ``"theta"`` read per neighbor of each pull in phase (a), in
    ascending neighbor order, and one ``"regret"`` read per message of
    phase (b); a round in which no agent is loud records no regret read.

    ``zetas`` holds a gate per active agent, the previous round's
    ``RoundTrace.zetas``, and is not changed. ``cover`` is the
    :class:`~covgame.game.CoverCount` that holds the strategies; the round
    moves it to the new ones, checking that the covered cells rose by
    exactly the innovators' cell gains (``RuntimeError`` if not).
    """
    t_start = time.perf_counter()
    regrets: dict[int, float] = {}
    proposals: dict[int, float] = {}

    for k in game.active_indices:
        if zetas[k]:
            if audit is not None:
                for l in game.neighbor_positions[k].tolist():
                    audit.record(k, l + 1, "theta")
            try:
                proposals[k], regrets[k] = best_response_gain(game, k, cover)
            except ValueError as exc:
                raise RuntimeError(f"best-response solve failed for agent {k}") from exc
        else:
            regrets[k] = 0.0

    loud = _send_regrets(regrets, game.neighbor_positions, cfg.epsilon, audit)
    innovators = _elect(loud, game.neighbor_positions)
    gated = np.zeros(game.n_agents, dtype=bool)
    for k in loud:
        gated[k - 1] = True
        gated[game.neighbor_positions[k]] = True
    gates = gated.tolist()

    cover.adopt(game, {k: proposals[k] for k in innovators})

    wall_time = time.perf_counter() - t_start
    # The objective below is trace bookkeeping, not part of the agents'
    # computation, so it stays outside the timed section.
    return RoundTrace(
        iteration=iteration,
        phi=covered_value(game, cover.covered, cover.theta.tolist()),
        innovators=innovators,
        regrets=regrets,
        zetas={k: gates[k - 1] for k in game.active_indices},
        wall_time=wall_time,
    )


def run_search(
    game: GameInstance,
    initial_profile: StrategyProfile,
    cfg: SearchConfig,
    audit: AccessAudit | None = None,
) -> SearchResult:
    """Run the full engine: ``cfg.max_rounds`` rounds plus a certification.

    All gates start open, from the :class:`~covgame.game.CoverCount` of
    ``initial_profile``, which sets the inactive agents' entries to 0.
    ``converged_at`` is the index into ``traces`` of the first round that
    elected nobody; later rounds still run (they scan nothing once the
    gates close) and never change the profile. The final profile is
    certified at ``cfg.epsilon`` by the same exact best response the rounds
    use, so a run that converged always certifies, and a certified profile
    leaves no agent a unilateral gain above ``cfg.epsilon``.
    """
    cover = CoverCount(game, initial_profile)
    zetas = dict.fromkeys(game.active_indices, True)
    traces: list[RoundTrace] = []
    converged_at: int | None = None
    for p in range(1, cfg.max_rounds + 1):
        trace = run_round(game, zetas, cover, cfg, iteration=p, audit=audit)
        zetas = trace.zetas
        traces.append(trace)
        if converged_at is None and not trace.innovators:
            converged_at = len(traces) - 1

    certification = certify_epsilon_equilibrium(game, cover, cfg.epsilon)
    return SearchResult(
        final_profile=StrategyProfile(cover.theta),
        converged_at=converged_at,
        traces=tuple(traces),
        certified=certification.certified,
        certification=certification,
    )


def iteration_bound(phi_min: float, phi_max: float, epsilon: float) -> int:
    """Round budget sufficient for convergence given objective bounds.

    With the objective confined to ``[phi_min, phi_max]`` and every
    non-converged round improving it by more than ``epsilon``, at most
    ``floor((phi_max - phi_min) / epsilon) + 1`` rounds are needed.

    Raises:
        ValueError: if ``epsilon`` is not positive, the envelope is empty,
            or the quotient is not finite.
    """
    if not (epsilon > 0.0):
        raise ValueError("epsilon must be positive")
    if phi_max < phi_min:
        raise ValueError("phi_max must be at least phi_min")
    rounds = (phi_max - phi_min) / epsilon
    if not math.isfinite(rounds):
        raise ValueError(
            f"the round bound (phi_max - phi_min) / epsilon over the objective envelope "
            f"[{phi_min}, {phi_max}] s at epsilon {epsilon} s is not finite"
        )
    return int(math.floor(rounds)) + 1
