"""Game objects: objectives against hand mask arithmetic, graph, certification."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covgame.game import (
    MASKS_PER_AGENT,
    AgentSpec,
    CoverCount,
    GameInstance,
    StrategyInterval,
    StrategyProfile,
    best_response_gain,
    certify_epsilon_equilibrium,
    count_dtype,
    energy_penalty,
    global_value,
)
from covgame.measure import TimeGrid, union_many
from covgame.orbit import ConstellationCoverage, build_constellation_game
from covgame.scenario import parse_scenario

from conftest import (
    CallCounter,
    as_generator,
    graph_game,
    lattice,
    mini_scenario_doc,
    neighbor_sets,
    random_profile,
    reach_mask,
    sampled_reach_graph,
    sliding_window_game,
    two_cluster_game,
    window_mask,
)
from oracles import local_value, regret
from test_acceptance import lattice_toy_game
from test_search import single_agent_game

MINI_CFG = parse_scenario(mini_scenario_doc())
MINI_GAME = MINI_CFG.build_game()


class TestEnergyPenalty:
    agent = AgentSpec(index=1, strategy_space=StrategyInterval(-2.0, 2.0), theta_max=0.8)

    def test_zero_maneuver_costs_nothing(self):
        assert energy_penalty(self.agent, 0.0) == 0.0

    def test_normalization_point(self):
        assert energy_penalty(self.agent, 0.8) == pytest.approx(1.0)

    def test_quadratic_form(self):
        assert energy_penalty(self.agent, 0.4) == pytest.approx(0.25)

    def test_even(self, rng):
        for theta in rng.uniform(-2.0, 2.0, 100):
            assert energy_penalty(self.agent, theta) == energy_penalty(self.agent, -theta)


def fixed_mask_game(masks, gamma=0.2, theta_max=1.0):
    """Game whose coverage ignores theta entirely; masks keyed by agent index."""
    grid = TimeGrid(0.0, float(len(next(iter(masks.values())))), 1.0)
    space = StrategyInterval(-1.0, 1.0)

    def coverage(k, theta):
        return np.array(masks[k], dtype=bool)

    as_generator(coverage, grid)
    agents = tuple(
        AgentSpec(index=k, strategy_space=space, theta_max=theta_max) for k in sorted(masks)
    )
    return GameInstance(agents, grid, coverage, gamma)


class TestCountDtype:
    """The cover count's dtype holds every count from 0 to the agent count."""

    @pytest.mark.parametrize(
        "n, dtype",
        [
            (0, np.uint8),
            (1, np.uint8),
            (255, np.uint8),
            (256, np.uint16),
            (65535, np.uint16),
            (65536, np.uint32),
            (2**32 - 1, np.uint32),
            (2**32, np.uint64),
        ],
    )
    def test_smallest_unsigned_type_that_holds_the_count(self, n, dtype):
        assert count_dtype(n) == dtype
        assert np.iinfo(count_dtype(n)).max >= n

    def test_cover_count_uses_it(self, toy_game):
        cover = CoverCount(toy_game, StrategyProfile.zeros(toy_game.n_agents))
        assert cover.counts.dtype == count_dtype(len(toy_game.active_indices))


class TestCoverCountEntry:
    """A profile is validated where it enters a cover count."""

    @pytest.mark.parametrize("extra", [6, -1])
    def test_profile_of_the_wrong_length_is_an_error(self, extra):
        # 30 entries for 24 agents, or 23: neither may be counted.
        game = fixed_mask_game({k: [k % 2, 1 - k % 2] for k in range(1, 25)})
        with pytest.raises(ValueError, match=f"{24 + extra} entries for 24 agents"):
            CoverCount(game, StrategyProfile.zeros(24 + extra))

    def test_active_strategy_outside_its_interval_is_an_error(self, toy_game):
        bad = StrategyProfile.zeros(toy_game.n_agents).replace(1, 99.0)
        with pytest.raises(ValueError, match="strategy 99.0 of agent 1 is outside"):
            CoverCount(toy_game, bad)

    def test_inactive_entries_are_held_at_zero(self):
        game = MINI_GAME
        cover = CoverCount(game, StrategyProfile(np.full(game.n_agents, 0.01)))
        for k in MINI_CFG.damaged:
            assert k not in game.active_indices and cover.theta[k - 1] == 0.0
        assert all(cover.theta[k - 1] == 0.01 for k in game.active_indices)

    def test_strategies_are_written_only_by_adopt(self, toy_game):
        # adopt marks the movers' neighbors' best responses stale, so a
        # write that bypasses it would leave them stale unseen: it raises.
        cover = CoverCount(toy_game, StrategyProfile.zeros(toy_game.n_agents))
        with pytest.raises(ValueError, match="read-only"):
            cover.theta[0] = 1.0
        cover.adopt(toy_game, {1: 1.0})
        assert cover.theta[0] == 1.0


class TestGlobalValue:
    def test_single_agent_no_penalty(self):
        game = fixed_mask_game({1: [1] * 100 + [0] * 20})
        assert global_value(game, StrategyProfile.zeros(1)) == 100.0

    def test_identical_coverage_collapses(self):
        mask = [1] * 30 + [0] * 10
        game = fixed_mask_game({1: mask, 2: mask})
        assert global_value(game, StrategyProfile.zeros(2)) == 30.0

    def test_four_agent_union_against_direct_mask_arithmetic(self, rng):
        masks = {k: (rng.random(50) < 0.3).tolist() for k in (1, 2, 3, 4)}
        game = fixed_mask_game(masks, gamma=0.3)
        profile = StrategyProfile(np.array([0.5, -0.25, 0.0, 1.0]))
        stacked = np.array([masks[k] for k in (1, 2, 3, 4)], dtype=bool)
        expected = float(stacked.any(axis=0).sum())
        expected -= 0.3 * sum(float(t * t) for t in profile.theta)
        assert global_value(game, profile) == pytest.approx(expected, abs=1e-12)

    def test_inactive_agents_ignored(self):
        grid_len = 20
        masks = {1: [1] * grid_len, 2: [1] * grid_len}
        game = fixed_mask_game(masks)
        agents = (
            game.agents[0],
            AgentSpec(2, game.agents[1].strategy_space, 1.0, active=False),
        )
        degraded = GameInstance(agents, game.grid, game.coverage_fn, game.gamma)
        profile = StrategyProfile(np.array([0.0, 0.7]))
        assert global_value(degraded, profile) == 20.0  # no penalty from agent 2

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), damaged=st.sets(st.integers(1, 12)))
    def test_matches_the_per_agent_formula(self, seed, damaged):
        # The mini game (agent 5 damaged), then the same orbit with random
        # damage, surpluses and penalty scale. Surpluses down to 0.01 rad let
        # the penalty outweigh the coverage, so that a penalty summed in
        # another order shows in the last bits of the value.
        rng = np.random.default_rng(seed)
        orbital = build_constellation_game(
            MINI_CFG.constants, MINI_CFG.constellation, MINI_CFG.target, MINI_CFG.grid,
            rng.uniform(0.0, 200.0), MINI_CFG.strategy_space,
            np.exp(rng.uniform(np.log(0.01), np.log(10.0), 12)).tolist(), damaged,
        )
        for game in (MINI_GAME, orbital):
            assert game.active_indices == tuple(a.index for a in game.agents if a.active)
            profile = random_profile(game, rng)
            expected = reference_global_value(game, profile)
            assert global_value(game, profile).hex() == expected.hex()


class TestCoverageMemo:
    """The mask memo keeps ``MASKS_PER_AGENT`` masks per active agent, oldest out first."""

    @staticmethod
    def filled(extra=0):
        # One active agent, so the memo keeps 16 masks; the keys are built in
        # this order.
        game = sliding_window_game(n_agents=1)
        thetas = np.linspace(-3.0, 3.0, MASKS_PER_AGENT + extra).tolist()
        masks = [game.coverage(1, theta) for theta in thetas]
        return game, [(1, theta) for theta in thetas], masks

    def test_a_hit_builds_nothing_and_evicts_nothing(self, monkeypatch):
        game, keys, masks = self.filled()
        before = (game.mask_builds, list(game._coverage_cache), list(game._coverage_order))
        monkeypatch.setattr(game.coverage_fn, "covered_positions", None)
        for (k, theta), mask in zip(keys, masks):
            assert game.coverage(k, np.float64(theta)) is mask
        assert (game.mask_builds, list(game._coverage_cache), list(game._coverage_order)) == before

    def test_a_full_memo_evicts_the_oldest_key_first(self):
        game, keys, _ = self.filled()
        assert list(game._coverage_cache) == keys and game.mask_builds == MASKS_PER_AGENT
        # A hit does not refresh a key, so the first built is still the first out.
        game.coverage(*keys[0])
        game.coverage(1, 3.5)
        assert list(game._coverage_cache) == keys[1:] + [(1, 3.5)]
        game.coverage(1, 3.75)
        assert list(game._coverage_cache) == keys[2:] + [(1, 3.5), (1, 3.75)]
        assert game.mask_builds == MASKS_PER_AGENT + 2

    def test_an_evicted_mask_is_rebuilt_bit_identical_and_read_only(self):
        game, keys, masks = self.filled(extra=1)
        assert keys[0] not in game._coverage_cache
        again = game.coverage(*keys[0])
        assert again is not masks[0] and np.array_equal(again, masks[0])
        assert not again.flags.writeable
        with pytest.raises(ValueError):
            again[0] = not again[0]
        assert game.mask_builds == MASKS_PER_AGENT + 2
        assert list(game._coverage_cache) == keys[2:] + [keys[0]]


def reference_global_value(game, profile):
    """The global objective agent by agent: one lookup and one penalty call each."""
    sets = [game.coverage(k, profile.for_agent(k)) for k in game.active_indices]
    covered = game.grid.dt * int(np.count_nonzero(union_many(sets, game.n_cells)))
    penalty = sum(
        energy_penalty(game.agent(k), profile.for_agent(k)) for k in game.active_indices
    )
    return covered - game.gamma * penalty


class TestLocalValue:
    def test_no_neighbors_is_own_measure_minus_penalty(self):
        game = fixed_mask_game({1: [1] * 40 + [0] * 10, 2: [0] * 50}, gamma=0.5)
        profile = StrategyProfile(np.array([0.5, 0.0]))
        assert local_value(game, 1, profile) == pytest.approx(40.0 - 0.5 * 0.25)

    def test_fully_covered_by_neighbor_is_zero(self):
        mask = [1] * 25 + [0] * 5
        game = fixed_mask_game({1: mask, 2: mask})
        assert local_value(game, 1, StrategyProfile.zeros(2)) == 0.0

    def test_three_agent_line_against_explicit_masks(self, toy_game):
        profile = StrategyProfile(np.array([0.6, -1.2, 0.0, 2.0, -2.0, 1.0]))
        k = 3
        own = toy_game.coverage(k, profile.for_agent(k))
        neigh = np.zeros_like(own)
        for l in toy_game.neighbors(k):
            neigh |= toy_game.coverage(l, profile.for_agent(l))
        expected = float((own & ~neigh).sum()) * toy_game.grid.dt
        expected -= toy_game.gamma * profile.for_agent(k) ** 2
        assert local_value(toy_game, k, profile) == pytest.approx(expected, abs=1e-12)

    def test_unchanged_by_non_neighbor_perturbation(self, toy_game, rng):
        profile = random_profile(toy_game, rng)
        k = 1
        outside = [
            a.index
            for a in toy_game.agents
            if a.index != k and a.index not in toy_game.neighbors(k)
        ]
        assert outside, "toy game should not be complete"
        baseline = local_value(toy_game, k, profile)
        for other in outside:
            perturbed = profile.replace(other, -profile.for_agent(other) or 1.0)
            assert local_value(toy_game, k, perturbed) == baseline

    def test_inactive_agent_rejected(self):
        game = fixed_mask_game({1: [1] * 10, 2: [1] * 10})
        agents = (game.agents[0], AgentSpec(2, game.agents[1].strategy_space, 1.0, active=False))
        degraded = GameInstance(agents, game.grid, game.coverage_fn, game.gamma)
        with pytest.raises(ValueError, match="not active"):
            local_value(degraded, 2, StrategyProfile.zeros(2))


class TestRegret:
    def test_no_deviation_no_regret(self, toy_game, rng):
        profile = random_profile(toy_game, rng)
        assert regret(toy_game, 2, profile.for_agent(2), profile) == 0.0

    def test_best_response_regret_non_negative(self, toy_game, rng):
        profile = random_profile(toy_game, rng)
        k = 4
        space = toy_game.agent(k).strategy_space
        theta_star, gain = best_response_gain(toy_game, k, CoverCount(toy_game, profile))
        assert space.contains(theta_star)
        assert regret(toy_game, k, theta_star, profile) == gain >= 0.0

    def test_regret_equals_potential_difference(self, toy_game, rng):
        # Unilateral deviations move the global objective by the same amount.
        for _ in range(300):
            profile = random_profile(toy_game, rng)
            k = int(rng.integers(1, toy_game.n_agents + 1))
            space = toy_game.agent(k).strategy_space
            new_theta = rng.uniform(space.lo, space.hi)
            lhs = regret(toy_game, k, new_theta, profile)
            rhs = global_value(toy_game, profile.replace(k, new_theta)) - global_value(
                toy_game, profile
            )
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestNeighborGraph:
    def test_disjoint_reach_no_edge(self):
        game = fixed_mask_game({1: [1, 1, 0, 0, 0, 0], 2: [0, 0, 0, 0, 1, 1]})
        assert game.neighbors(1) == frozenset()
        assert game.neighbors(2) == frozenset()

    def test_single_agent_empty_graph(self):
        game = fixed_mask_game({1: [1, 1, 1]})
        assert neighbor_sets(game) == {1: frozenset()}

    def test_sliding_windows_chain(self, toy_game):
        # Windows reach +-6 cells around base spacing 9, width 10: ring chain
        # with second-nearest links, symmetric.
        for k, neigh in neighbor_sets(toy_game).items():
            assert k not in neigh
            for l in neigh:
                assert k in toy_game.neighbors(l)
        assert 2 in toy_game.neighbors(1) and 3 in toy_game.neighbors(2)

    def test_neighbor_positions_are_the_sorted_graph(self):
        # A graph realized through the agents' reaches, each neighbor set
        # listed out of order; agent 4 is inactive, so its edges drop out.
        graph = {6: [3, 1], 1: [6, 4, 3, 2], 3: [6, 1], 2: [1], 4: [5, 1], 5: [4]}
        game = graph_game(graph, inactive={4})
        assert neighbor_sets(game) == {1: {2, 3, 6}, 2: {1}, 3: {1, 6}, 5: set(), 6: {1, 3}}
        assert sorted(game.reach_positions) == [1, 2, 3, 5, 6]
        assert sorted(game.neighbor_positions) == [1, 2, 3, 5, 6]
        for k, positions in game.neighbor_positions.items():
            assert positions.dtype == np.intp
            assert (positions + 1).tolist() == sorted(neighbor_sets(game)[k])
            assert not positions.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                positions[...] = 0
        assert game.neighbor_positions[1].tolist() == [1, 2, 5]

    def test_reach_is_read_once_per_active_agent(self, monkeypatch):
        # The game keeps each active agent's reach: building it reads every
        # one once, and a certification, a best response per agent, reads
        # none again.
        reads = CallCounter(monkeypatch, ConstellationCoverage, "reach_positions")
        game = MINI_CFG.build_game()
        assert reads.calls == len(game.active_indices) == 11
        assert sorted(game.reach_positions) == list(game.active_indices)
        certify_epsilon_equilibrium(
            game, CoverCount(game, StrategyProfile.zeros(game.n_agents)), 0.1
        )
        assert reads.calls == 11

    def test_reach_edge_requires_some_strategy_pair(self, toy_game):
        # Neighbors iff the reaches intersect: verify against a direct reach
        # computation from the coverage function, whose 66 samples see every
        # plateau of the toy game.
        samples = np.linspace(-3.0, 3.0, 66)
        reach = {}
        for a in toy_game.agents:
            masks = [toy_game.coverage_fn(a.index, float(t)) for t in samples]
            reach[a.index] = np.any(masks, axis=0)
        for k in reach:
            for l in reach:
                if k < l:
                    expected = bool((reach[k] & reach[l]).any())
                    assert (l in toy_game.neighbors(k)) == expected


# Every hand-built test game whose generator comes from the conftest wrapper.
REACH_TEST_GAMES = {
    "sliding-window": sliding_window_game,
    "sliding-window-5": lambda: sliding_window_game(n_agents=5, spacing=8),
    "sliding-window-4": lambda: sliding_window_game(n_agents=4),
    "two-cluster": two_cluster_game,
    "lattice": lattice_toy_game,
    "single-agent": single_agent_game,
    "fixed-mask": lambda: fixed_mask_game(
        {1: [1, 1, 0, 0, 0, 0], 2: [0, 1, 1, 0, 0, 0], 3: [0, 0, 0, 0, 1, 1]}
    ),
}


class TestExactReach:
    """Test generators' reach masks are exact, and their graphs complete."""

    @pytest.mark.parametrize("name", sorted(REACH_TEST_GAMES))
    def test_masks_lie_in_reach_and_graph_holds_the_sampled_one(self, name):
        game = REACH_TEST_GAMES[name]()
        cov = game.coverage_fn
        for k in game.active_indices:
            space = game.agent(k).strategy_space
            reach = reach_mask(cov, k)
            for theta in np.linspace(space.lo, space.hi, 201):
                assert not np.any(cov(k, float(theta)) & ~reach), (k, theta)
        sampled = sampled_reach_graph(game.agents, cov)
        exact = neighbor_sets(game)
        for k, neigh in sampled.items():
            assert neigh <= exact[k]


class TestGameValidation:
    @pytest.mark.parametrize("theta_max", [0.0, np.inf, np.nan])
    def test_theta_max_must_be_positive_and_finite(self, theta_max):
        # An infinite surplus would make every maneuver free.
        with pytest.raises(ValueError, match="theta_max must be positive and finite"):
            AgentSpec(1, StrategyInterval(-1.0, 1.0), theta_max)

    def test_mask_length_is_the_generator_cells(self, toy_game):
        assert toy_game.n_cells == len(toy_game.coverage_fn.cells) == toy_game.grid.n_steps

    def test_profile_length_checked(self, toy_game):
        with pytest.raises(ValueError, match="entries"):
            toy_game.validate_profile(StrategyProfile.zeros(2))

    def test_profile_bounds_checked(self, toy_game):
        bad = StrategyProfile.zeros(toy_game.n_agents).replace(1, 99.0)
        with pytest.raises(ValueError, match="outside"):
            toy_game.validate_profile(bad)

    @pytest.mark.parametrize(
        "member",
        ["cells", "covered_positions", "scan", "masked_cell_counts", "reach_positions"],
    )
    def test_coverage_without_breakpoints_rejected(self, member):
        # Each member of the generator protocol is checked when the game is
        # built, not on first use.
        grid = TimeGrid(0.0, 4.0, 1.0)

        def coverage(k, theta):
            return np.zeros(4, dtype=bool)

        as_generator(coverage, grid)
        delattr(coverage, member)
        agents = (AgentSpec(1, StrategyInterval(-1.0, 1.0), 1.0),)
        with pytest.raises(TypeError, match=f"must expose {member}"):
            GameInstance(agents, grid, coverage, 0.1)


class TestCertification:
    def test_huge_epsilon_always_certifies(self, toy_game, rng):
        profile = random_profile(toy_game, rng)
        report = certify_epsilon_equilibrium(toy_game, CoverCount(toy_game, profile), 1e9)
        assert report.certified

    def test_known_improvement_detected(self):
        # Agent 1 overlaps agent 2 but can slide fully clear: a known gain.
        grid = TimeGrid(0.0, 40.0, 1.0)
        space = StrategyInterval(-10.0, 10.0)

        def coverage(k, theta):
            if k == 2:
                return window_mask(grid, 0, 20)
            return window_mask(grid, 10 + int(np.round(theta)), 10)

        as_generator(coverage, grid, lattice(10.0, 1.0))
        agents = tuple(AgentSpec(k, space, 100.0) for k in (1, 2))
        game = GameInstance(agents, grid, coverage, 0.0)
        report = certify_epsilon_equilibrium(game, CoverCount(game, StrategyProfile.zeros(2)), 1.0)
        assert not report.certified
        assert report.worst_agent == 1
        assert report.worst_gain == pytest.approx(10.0, abs=1e-6)

    def test_gains_reported_for_all_active(self, toy_game):
        report = certify_epsilon_equilibrium(
            toy_game, CoverCount(toy_game, StrategyProfile.zeros(toy_game.n_agents)), 0.5
        )
        assert sorted(report.gains) == list(range(1, toy_game.n_agents + 1))

    def test_epsilon_validation(self, toy_game):
        with pytest.raises(ValueError):
            certify_epsilon_equilibrium(
                toy_game, CoverCount(toy_game, StrategyProfile.zeros(toy_game.n_agents)), 0.0
            )

    @pytest.mark.parametrize("epsilon", [np.inf, np.nan])
    def test_non_finite_settings_rejected(self, toy_game, epsilon):
        with pytest.raises(ValueError, match="positive and finite"):
            certify_epsilon_equilibrium(
                toy_game, CoverCount(toy_game, StrategyProfile.zeros(toy_game.n_agents)), epsilon
            )


class TestPotentialIdentityToy:
    def test_thousand_random_unilateral_deviations(self, rng):
        game = sliding_window_game(n_agents=6)
        checked = 0
        for _ in range(250):
            profile = random_profile(game, rng)
            base = global_value(game, profile)
            for _ in range(4):
                k = int(rng.integers(1, 7))
                space = game.agent(k).strategy_space
                theta_new = rng.uniform(space.lo, space.hi)
                delta_local = regret(game, k, theta_new, profile)
                delta_global = global_value(game, profile.replace(k, theta_new)) - base
                assert abs(delta_local - delta_global) <= 1e-9 * (1.0 + abs(base))
                checked += 1
        assert checked == 1000
