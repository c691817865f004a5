"""Round engine: election rules, round accounting, gates, convergence, audit."""
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covgame.game import (
    AgentSpec,
    CoverCount,
    GameInstance,
    StrategyInterval,
    StrategyProfile,
    best_response_gain,
    global_value,
)
from covgame.measure import TimeGrid
from covgame.search import (
    AccessAudit,
    SearchConfig,
    elect_innovators,
    iteration_bound,
    run_round,
    run_search,
)

from conftest import (
    as_generator,
    graph_game,
    graph_positions,
    lattice,
    neighbor_sets,
    sliding_window_game,
    two_cluster_game,
    window_mask,
)


PATH_GRAPH = {1: frozenset({2}), 2: frozenset({1, 3}), 3: frozenset({2})}


def all_neighbor_election(regrets, graph, epsilon):
    """Reference election: every agent reads every neighbor's regret.

    An agent qualifies iff its regret exceeds ``epsilon``, is at least every
    neighbor's, and no smaller-indexed neighbor ties it exactly; any
    non-finite regret raises.
    """
    elected = []
    for k, r_k in regrets.items():
        if not math.isfinite(r_k):
            raise ValueError(f"regret of agent {k} is not finite")
        if r_k > epsilon and not any(
            regrets[l] > r_k or (regrets[l] == r_k and l < k) for l in graph[k]
        ):
            elected.append(k)
    return tuple(sorted(elected))


def all_neighbor_gates(regrets, graph, epsilon, innovators):
    """Reference gates: open iff elected, or some regret in the closed
    neighborhood exceeds ``epsilon``, read over every neighbor."""
    return {
        k: k in innovators
        or regrets[k] > epsilon
        or any(regrets[l] > epsilon for l in graph[k])
        for k in regrets
    }


EPSILON = 0.1
# Quiet values (0 and epsilon itself), the smallest loud value, and values
# that tie whenever two agents draw the same one.
REGRET_VALUES = [0.0, EPSILON, math.nextafter(EPSILON, math.inf), 1.0, 2.0]


@st.composite
def regret_graphs(draw, max_agents=9):
    """A random symmetric graph on agents 1..n, each agent's regret, and
    which agents are gated on."""
    n = draw(st.integers(1, max_agents))
    graph = {k: set() for k in range(1, n + 1)}
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            if draw(st.booleans()):
                graph[k].add(l)
                graph[l].add(k)
    regrets = {k: draw(st.sampled_from(REGRET_VALUES)) for k in graph}
    gated = {k: draw(st.booleans()) for k in graph}
    return {k: frozenset(v) for k, v in graph.items()}, regrets, gated


def blank_game(graph):
    """Agents linked by ``graph``, any graph, each covering its edges' cells."""
    game = graph_game(graph)
    assert neighbor_sets(game) == graph
    return game


def round_with_regrets(graph, regrets, gated, audit=None):
    """One ``run_round`` in which each gated agent's best response keeps its
    strategy and reports the given regret."""
    game = blank_game(graph)
    profile = StrategyProfile.zeros(game.n_agents)

    def best_response_gain(game, k, cover):
        return float(cover.theta[k - 1]), regrets[k]

    cover = CoverCount(game, profile)
    with mock.patch("covgame.search.best_response_gain", best_response_gain):
        trace = run_round(game, gated, cover, SearchConfig(EPSILON, 1), audit=audit)
    return StrategyProfile(cover.theta), trace


class TestElection:
    def test_non_adjacent_co_winners_on_path(self):
        # Regrets 5,3,5 on 1-2-3: the ends dominate their shared middle.
        path = graph_positions(PATH_GRAPH)
        assert elect_innovators({1: 5.0, 2: 3.0, 3: 5.0}, path, 0.1) == (1, 3)

    def test_all_below_epsilon_elects_nobody(self):
        path = graph_positions(PATH_GRAPH)
        assert elect_innovators({1: 0.05, 2: 0.1, 3: 0.0}, path, 0.1) == ()

    def test_exact_tie_breaks_to_smallest_index(self):
        graph = {1: frozenset({2}), 2: frozenset({1})}
        assert elect_innovators({1: 4.0, 2: 4.0}, graph_positions(graph), 0.1) == (1,)
        assert elect_innovators({2: 4.0, 1: 4.0}, graph_positions(graph), 0.1) == (1,)

    def test_regret_must_strictly_exceed_epsilon(self):
        graph = {1: frozenset()}
        assert elect_innovators({1: 0.1}, graph_positions(graph), 0.1) == ()
        assert elect_innovators({1: 0.1000001}, graph_positions(graph), 0.1) == (1,)

    def test_no_two_elected_are_neighbors(self, rng):
        # Random regrets on a random ring-with-chords graph.
        n = 12
        graph = {k: set() for k in range(1, n + 1)}
        for k in range(1, n + 1):
            for off in (1, 2):
                l = (k - 1 + off) % n + 1
                graph[k].add(l)
                graph[l].add(k)
        graph = {k: frozenset(v) for k, v in graph.items()}
        for _ in range(200):
            regrets = {k: float(rng.choice([0.0, 1.0, 2.0, 3.0])) for k in graph}
            chosen = elect_innovators(regrets, graph_positions(graph), 0.5)
            for a in chosen:
                assert not (set(chosen) & graph[a])

    def test_non_finite_regret_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            elect_innovators({1: float("nan")}, graph_positions({1: frozenset()}), 0.1)


class TestLoudOnlyExchange:
    """The loud-only election and gates against the all-neighbor rule."""

    @settings(max_examples=300, deadline=None)
    @given(case=regret_graphs())
    def test_election_matches_all_neighbor_rule(self, case):
        graph, regrets, _ = case
        expected = all_neighbor_election(regrets, graph, EPSILON)
        assert elect_innovators(regrets, graph_positions(graph), EPSILON) == expected

    @settings(max_examples=150, deadline=None)
    @given(case=regret_graphs())
    def test_round_matches_all_neighbor_rule(self, case):
        graph, regrets, gated = case
        audit = AccessAudit()
        profile, trace = round_with_regrets(graph, regrets, gated, audit)
        reported = {k: regrets[k] if gated[k] else 0.0 for k in graph}
        assert trace.regrets == reported
        innovators = all_neighbor_election(reported, graph, EPSILON)
        assert trace.innovators == innovators
        assert trace.zetas == all_neighbor_gates(reported, graph, EPSILON, innovators)
        assert not profile.theta.any()
        # One message per loud agent and neighbor, and nothing else.
        sent = sorted(
            (l, k, "regret") for k, r in reported.items() if r > EPSILON for l in graph[k]
        )
        assert sorted(r for r in audit.reads if r[2] == "regret") == sent

    @settings(max_examples=150, deadline=None)
    @given(
        case=regret_graphs(),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        data=st.data(),
    )
    def test_non_finite_regret_rejected_anywhere(self, case, bad, data):
        # NaN and -inf do not exceed epsilon, so an agent reporting one
        # sends nothing; the check must still see it.
        graph, regrets, gated = case
        k = data.draw(st.sampled_from(sorted(graph)))
        regrets = {**regrets, k: bad}
        with pytest.raises(ValueError, match="not finite"):
            elect_innovators(regrets, graph_positions(graph), EPSILON)
        with pytest.raises(ValueError, match="not finite"):
            round_with_regrets(graph, regrets, {**gated, k: True})


class TestIterationBound:
    def test_direct_formula(self):
        assert iteration_bound(0.0, 10.0, 1.0) == 11

    def test_constant_potential(self):
        assert iteration_bound(0.0, 0.0, 0.1) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            iteration_bound(0.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            iteration_bound(10.0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "phi_min, phi_max, epsilon", [(0.0, 1.0, 5e-324), (-1e308, 1e308, 1.0)]
    )
    def test_overflowing_bound_is_a_value_error(self, phi_min, phi_max, epsilon):
        with pytest.raises(ValueError, match="not finite"):
            iteration_bound(phi_min, phi_max, epsilon)


class TestSearchConfig:
    def test_round_budget_guard(self):
        with pytest.raises(ValueError):
            SearchConfig(epsilon=0.1, max_rounds=0)
        with pytest.raises(ValueError):
            SearchConfig(epsilon=0.0, max_rounds=5)

    @pytest.mark.parametrize("epsilon", [float("inf"), float("nan")])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="positive and finite"):
            SearchConfig(epsilon=epsilon, max_rounds=5)


def single_agent_game():
    """One agent whose nominal window hangs off the grid edge: sliding it
    back in gains clipped cells."""
    grid = TimeGrid(0.0, 30.0, 1.0)

    def coverage(k, theta):
        start = int(np.round(theta))
        return window_mask(grid, 25 + start, 10)

    as_generator(coverage, grid, lattice(10.0, 1.0))
    agents = (AgentSpec(1, StrategyInterval(-10.0, 0.0), 100.0),)
    return GameInstance(agents, grid, coverage, 0.0)


class TestRunRound:
    cfg = SearchConfig(epsilon=0.1, max_rounds=5)

    def test_all_gates_closed_is_noop(self, toy_game):
        profile = StrategyProfile(np.full(toy_game.n_agents, 0.25))
        zetas = dict.fromkeys(toy_game.active_indices, False)
        cover = CoverCount(toy_game, profile)
        counts = cover.counts.copy()
        audit = AccessAudit()
        trace = run_round(toy_game, zetas, cover, self.cfg, audit=audit)
        assert trace.innovators == ()
        assert all(r == 0.0 for r in trace.regrets.values())
        assert cover.theta.tobytes() == profile.theta.tobytes()
        assert np.array_equal(cover.counts, counts)
        # Nobody is loud, so no message is sent and nothing is read.
        assert audit.reads == []

    def test_one_loud_agent_sends_one_message_per_neighbor(self, toy_game):
        # Only the last window is gated on; it can slide off its neighbor's
        # overlap, so it is the one loud agent of the round.
        last = max(toy_game.active_indices)
        profile = StrategyProfile.zeros(toy_game.n_agents)
        zetas = {k: k == last for k in toy_game.active_indices}
        audit = AccessAudit()
        trace = run_round(toy_game, zetas, CoverCount(toy_game, profile), self.cfg, audit=audit)
        assert [k for k, r in trace.regrets.items() if r > self.cfg.epsilon] == [last]
        neighbors = toy_game.neighbors(last)
        assert len(neighbors) >= 2
        regret_reads = [r for r in audit.reads if r[2] == "regret"]
        assert sorted(regret_reads) == sorted((l, last, "regret") for l in neighbors)
        assert trace.zetas == {
            k: k == last or k in neighbors for k in toy_game.active_indices
        }

    def test_single_agent_innovates_and_phi_rises_by_its_regret(self):
        game = single_agent_game()
        profile = StrategyProfile.zeros(1)
        phi0 = global_value(game, profile)
        trace = run_round(game, {1: True}, CoverCount(game, profile), self.cfg, iteration=1)
        assert trace.innovators == (1,)
        assert trace.phi - phi0 == pytest.approx(trace.regrets[1], abs=1e-9)
        assert trace.zetas[1]

    def test_round_improvement_equals_innovator_regret_sum(self, rng):
        # Accounting identity, checked on every round of a full toy run.
        game = sliding_window_game(n_agents=6)
        cfg = SearchConfig(epsilon=0.05, max_rounds=12)
        profile = StrategyProfile.zeros(game.n_agents)
        zetas = dict.fromkeys(game.active_indices, True)
        phi = global_value(game, profile)
        cover = CoverCount(game, profile)
        for p in range(1, cfg.max_rounds + 1):
            trace = run_round(game, zetas, cover, cfg, iteration=p)
            zetas = trace.zetas
            gained = sum(trace.regrets[k] for k in trace.innovators)
            assert trace.phi - phi == pytest.approx(gained, abs=1e-6)
            assert trace.phi >= phi - 1e-9
            phi = trace.phi

    def test_solver_failure_names_agent(self):
        grid = TimeGrid(0.0, 4.0, 1.0)

        def coverage(k, theta):
            if theta > 0.5:
                raise ValueError("model blew up")
            return np.zeros(grid.n_steps, dtype=bool)

        # A breakpoint above 0.5 makes the best response evaluate there. The
        # agent covers nothing, so its reach is empty, and building the game
        # evaluates no strategy.
        as_generator(coverage, grid, [0.75])
        coverage.reach_positions = lambda k: np.zeros(0, dtype=np.intp)
        agents = (AgentSpec(1, StrategyInterval(-1.0, 1.0), 1.0),)
        game = GameInstance(agents, grid, coverage, 0.0)
        profile = StrategyProfile.zeros(1)
        with pytest.raises(RuntimeError, match="agent 1"):
            run_round(game, {1: True}, CoverCount(game, profile), self.cfg)


class TestSequentialEquivalence:
    def test_two_innovators_commute(self):
        # A captured 2-innovator round replayed one agent at a time, both
        # orders: the total improvement matches the simultaneous round.
        game = two_cluster_game()
        cfg = SearchConfig(epsilon=0.1, max_rounds=1)
        zetas = dict.fromkeys(game.active_indices, True)
        profile0 = StrategyProfile.zeros(game.n_agents)
        phi0 = global_value(game, profile0)
        cover = CoverCount(game, profile0)
        trace = run_round(game, zetas, cover, cfg, iteration=1)
        adopted = StrategyProfile(cover.theta)
        assert len(trace.innovators) == 2
        a, b = trace.innovators
        assert b not in game.neighbors(a)
        delta_round = trace.phi - phi0
        for order in ((a, b), (b, a)):
            profile = profile0
            for k in order:
                profile = profile.replace(k, adopted.for_agent(k))
            assert global_value(game, profile) - phi0 == pytest.approx(
                delta_round, abs=1e-9
            )


class TestRunSearch:
    def test_two_agent_disjoint_game_converges_immediately(self):
        grid = TimeGrid(0.0, 40.0, 1.0)

        def coverage(k, theta):
            return window_mask(grid, 0 if k == 1 else 25, 10)

        as_generator(coverage, grid)
        agents = tuple(AgentSpec(k, StrategyInterval(-1.0, 1.0), 1.0) for k in (1, 2))
        game = GameInstance(agents, grid, coverage, 0.1)
        result = run_search(game, StrategyProfile.zeros(2), SearchConfig(0.01, 4))
        assert result.converged_at == 0
        assert result.certified

    def test_toy_run_converges_and_certifies(self):
        game = sliding_window_game(n_agents=6)
        result = run_search(
            game, StrategyProfile.zeros(game.n_agents), SearchConfig(0.05, 15)
        )
        assert result.converged_at is not None
        assert result.certified
        assert result.traces[result.converged_at].innovators == ()

    def test_absorption_after_convergence(self):
        # Once a round elects nobody and closes every gate, later rounds are
        # exact no-ops.
        game = sliding_window_game(n_agents=6)
        result = run_search(
            game, StrategyProfile.zeros(game.n_agents), SearchConfig(0.05, 20)
        )
        settled = next(
            i
            for i, t in enumerate(result.traces)
            if not t.innovators and not any(t.zetas.values())
        )
        assert settled + 3 < len(result.traces)
        reference = result.traces[settled]
        for t in result.traces[settled + 1 :]:
            assert t.innovators == ()
            assert all(r == 0.0 for r in t.regrets.values())
            assert not any(t.zetas.values())
            assert t.phi == reference.phi

    def test_phi_profile_never_decreases(self):
        game = sliding_window_game(n_agents=5, spacing=8)
        result = run_search(
            game, StrategyProfile.zeros(game.n_agents), SearchConfig(0.05, 12)
        )
        phis = [t.phi for t in result.traces]
        assert all(b >= a - 1e-9 for a, b in zip(phis, phis[1:]))

    def test_final_profile_matches_last_round(self):
        game = sliding_window_game(n_agents=4)
        result = run_search(
            game, StrategyProfile.zeros(game.n_agents), SearchConfig(0.05, 10)
        )
        assert result.certification.epsilon == 0.05
        for k in game.active_indices:
            assert game.agent(k).strategy_space.contains(
                result.final_profile.for_agent(k)
            )

    def test_inactive_entries_come_out_zero(self):
        toy = sliding_window_game(n_agents=6)
        agents = tuple(replace(a, active=a.index not in (2, 5)) for a in toy.agents)
        game = GameInstance(agents, toy.grid, toy.coverage_fn, toy.gamma)
        initial = StrategyProfile.zeros(game.n_agents).replace(2, 0.5).replace(5, -0.75)
        result = run_search(game, initial, SearchConfig(0.05, 10))
        assert result.final_profile.for_agent(2) == 0.0
        assert result.final_profile.for_agent(5) == 0.0

    def test_initial_profile_validated(self, toy_game):
        bad = StrategyProfile.zeros(toy_game.n_agents).replace(2, 50.0)
        with pytest.raises(ValueError, match="outside"):
            run_search(toy_game, bad, SearchConfig(0.1, 3))


class TestLocalityAudit:
    def test_no_cross_neighborhood_reads_on_toy(self):
        game = sliding_window_game(n_agents=6)
        audit = AccessAudit()
        run_search(game, StrategyProfile.zeros(game.n_agents), SearchConfig(0.05, 8), audit=audit)
        assert audit.reads, "audit should observe the exchanges"
        assert audit.violations(game.neighbor_positions) == []

    def test_each_pull_is_one_gather_of_the_sorted_neighbors(self):
        # Each agent that scanned recorded one "theta" read per neighbor, in
        # ascending order, and answered the profile at those neighbors: the
        # cells of its reach that its entry holds uncovered are those outside
        # the OR of their masks. Distinct strategies make a wrong neighbor
        # visible.
        game = sliding_window_game(n_agents=6)
        audit = AccessAudit()
        profile = StrategyProfile(np.linspace(-1.0, 1.0, game.n_agents))
        zetas = dict.fromkeys(game.active_indices, True)
        scanned = []

        def capture(game, k, cover):
            scanned.append(k)
            return best_response_gain(game, k, cover)

        cover = CoverCount(game, profile)
        with mock.patch("covgame.search.best_response_gain", capture):
            run_round(game, zetas, cover, SearchConfig(0.05, 1), audit=audit)
        assert scanned == list(game.active_indices)
        for k in scanned:
            covered = np.zeros(game.n_cells, dtype=bool)
            for l in sorted(game.neighbors(k)):
                covered |= game.coverage(l, profile.for_agent(l))
            answered = cover._responses[k].uncovered
            assert np.array_equal(answered, ~covered[game.reach_positions[k]])
        theta_reads = [(reader, owner) for reader, owner, kind in audit.reads if kind == "theta"]
        assert theta_reads == [(k, l) for k in scanned for l in sorted(game.neighbors(k))]
