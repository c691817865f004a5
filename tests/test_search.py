"""Round engine: election rules, round accounting, gates, convergence, audit."""
import numpy as np
import pytest

from covgame.game import (
    AgentSpec,
    GameInstance,
    StrategyInterval,
    StrategyProfile,
    global_value,
)
from covgame.measure import TimeGrid
from covgame.search import (
    AccessAudit,
    AgentRoundState,
    SearchConfig,
    elect_innovators,
    iteration_bound,
    run_round,
    run_search,
)

from conftest import (
    as_generator,
    cover_of,
    lattice,
    sliding_window_game,
    two_cluster_game,
    window_mask,
)


PATH_GRAPH = {1: frozenset({2}), 2: frozenset({1, 3}), 3: frozenset({2})}


class TestElection:
    def test_non_adjacent_co_winners_on_path(self):
        # Regrets 5,3,5 on 1-2-3: the ends dominate their shared middle.
        assert elect_innovators({1: 5.0, 2: 3.0, 3: 5.0}, PATH_GRAPH, 0.1) == (1, 3)

    def test_all_below_epsilon_elects_nobody(self):
        assert elect_innovators({1: 0.05, 2: 0.1, 3: 0.0}, PATH_GRAPH, 0.1) == ()

    def test_exact_tie_breaks_to_smallest_index(self):
        graph = {1: frozenset({2}), 2: frozenset({1})}
        assert elect_innovators({1: 4.0, 2: 4.0}, graph, 0.1) == (1,)
        assert elect_innovators({2: 4.0, 1: 4.0}, graph, 0.1) == (1,)

    def test_regret_must_strictly_exceed_epsilon(self):
        graph = {1: frozenset()}
        assert elect_innovators({1: 0.1}, graph, 0.1) == ()
        assert elect_innovators({1: 0.1000001}, graph, 0.1) == (1,)

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
            chosen = elect_innovators(regrets, graph, 0.5)
            for a in chosen:
                assert not (set(chosen) & graph[a])

    def test_non_finite_regret_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            elect_innovators({1: float("nan")}, {1: frozenset()}, 0.1)


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
    return GameInstance(agents, grid, coverage, 0.0, {1: ()})


class TestRunRound:
    cfg = SearchConfig(epsilon=0.1, max_rounds=5)

    def test_all_gates_closed_is_noop(self, toy_game):
        states = {
            k: AgentRoundState(theta=0.25, zeta=False) for k in toy_game.active_indices
        }
        new_states, trace = run_round(toy_game, states, cover_of(toy_game, states), self.cfg)
        assert trace.innovators == ()
        assert all(r == 0.0 for r in trace.regrets.values())
        assert all(s.theta == 0.25 and not s.zeta for s in new_states.values())

    def test_single_agent_innovates_and_phi_rises_by_its_regret(self):
        game = single_agent_game()
        states = {1: AgentRoundState(theta=0.0, zeta=True)}
        phi0 = global_value(game, StrategyProfile.zeros(1))
        new_states, trace = run_round(
            game, states, cover_of(game, states), self.cfg, iteration=1
        )
        assert trace.innovators == (1,)
        assert trace.phi - phi0 == pytest.approx(trace.regrets[1], abs=1e-9)
        assert new_states[1].zeta

    def test_round_improvement_equals_innovator_regret_sum(self, rng):
        # Accounting identity, checked on every round of a full toy run.
        game = sliding_window_game(n_agents=6)
        cfg = SearchConfig(epsilon=0.05, max_rounds=12)
        profile = StrategyProfile.zeros(game.n_agents)
        states = {k: AgentRoundState(theta=0.0, zeta=True) for k in game.active_indices}
        phi = global_value(game, profile)
        cover = cover_of(game, states)
        for p in range(1, cfg.max_rounds + 1):
            states, trace = run_round(game, states, cover, cfg, iteration=p)
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

        # A breakpoint above 0.5 makes the best response evaluate there.
        as_generator(coverage, grid, [0.75])
        agents = (AgentSpec(1, StrategyInterval(-1.0, 1.0), 1.0),)
        game = GameInstance(agents, grid, coverage, 0.0, {1: ()})
        states = {1: AgentRoundState(theta=0.0, zeta=True)}
        with pytest.raises(RuntimeError, match="agent 1"):
            run_round(game, states, cover_of(game, states), self.cfg)


class TestSequentialEquivalence:
    def test_two_innovators_commute(self):
        # A captured 2-innovator round replayed one agent at a time, both
        # orders: the total improvement matches the simultaneous round.
        game = two_cluster_game()
        cfg = SearchConfig(epsilon=0.1, max_rounds=1)
        states = {k: AgentRoundState(theta=0.0, zeta=True) for k in game.active_indices}
        profile0 = StrategyProfile.zeros(game.n_agents)
        phi0 = global_value(game, profile0)
        new_states, trace = run_round(game, states, cover_of(game, states), cfg, iteration=1)
        assert len(trace.innovators) == 2
        a, b = trace.innovators
        assert b not in game.neighbors(a)
        delta_round = trace.phi - phi0
        for order in ((a, b), (b, a)):
            profile = profile0
            for k in order:
                profile = profile.replace(k, new_states[k].theta)
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
        game = GameInstance(agents, grid, coverage, 0.1, {1: (), 2: ()})
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
        assert audit.violations(game.neighbor_graph) == []

    def test_view_blocks_non_neighbor_keys(self):
        game = sliding_window_game(n_agents=6)
        audit = AccessAudit()
        states = {k: AgentRoundState(theta=0.0, zeta=True) for k in game.active_indices}
        run_round(game, states, cover_of(game, states), SearchConfig(0.05, 1), audit=audit)
        readers = {(reader, owner) for reader, owner, _ in audit.reads}
        for reader, owner in readers:
            assert owner in game.neighbor_graph[reader]
