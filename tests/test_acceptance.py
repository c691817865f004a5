"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS line with the measured quantities when its
assertions hold; run with ``pytest -s tests/test_acceptance.py`` to see them.
The 24-satellite runs reuse module-scoped fixtures so the whole suite stays
fast enough for a desk check.
"""
import itertools
import math
import time

import numpy as np
import pytest

from covgame.game import (
    CoverCount,
    StrategyProfile,
    certify_epsilon_equilibrium,
    global_value,
)
from covgame.harness import (
    round_bound,
    run_centralized,
    run_distributed,
    sweep_energy_coefficient,
)
from covgame.measure import TimeGrid, union_many
from covgame.orbit import orbital_period, drift_rates
from covgame.scenario import bundled_scenario_path, load_scenario
from covgame.search import AccessAudit, SearchConfig, run_round, run_search

from conftest import random_profile, sliding_window_game, two_cluster_game
from oracles import regret, rot_x, rot_y, rot_z, satellite_position_ecf

DEG = math.pi / 180.0


@pytest.fixture(scope="module")
def baseline_cfg():
    return load_scenario(bundled_scenario_path())


@pytest.fixture(scope="module")
def baseline_game(baseline_cfg):
    return baseline_cfg.build_game()


@pytest.fixture(scope="module")
def baseline_distributed(baseline_cfg):
    """Distributed run on the bundled scenario, instrumented for criterion 9."""
    audit = AccessAudit()
    started = time.perf_counter()
    report, result = run_distributed(baseline_cfg, audit=audit)
    elapsed = time.perf_counter() - started
    return report, result, audit, elapsed


@pytest.fixture(scope="module")
def baseline_centralized(baseline_cfg):
    return run_centralized(baseline_cfg)


def identity_triples(game, rng, n_triples, tol):
    """Check unilateral local/global deltas agree on n_triples random cases."""
    worst = 0.0
    remaining = n_triples
    while remaining > 0:
        profile = random_profile(game, rng)
        base = global_value(game, profile)
        for _ in range(min(20, remaining)):
            k = int(rng.choice(game.active_indices))
            space = game.agent(k).strategy_space
            theta_new = float(rng.uniform(space.lo, space.hi))
            d_local = regret(game, k, theta_new, profile)
            d_global = global_value(game, profile.replace(k, theta_new)) - base
            worst = max(worst, abs(d_local - d_global))
            assert abs(d_local - d_global) <= tol
            remaining -= 1
    return worst


def test_criterion_1_potential_identity(baseline_game, rng):
    started = time.perf_counter()
    toy = sliding_window_game(n_agents=6)
    worst_toy = identity_triples(toy, rng, 1000, 1e-6)
    worst_orbital = identity_triples(baseline_game, rng, 1000, 1e-6)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 1: potential identity on 2x1000 random triples "
        f"(worst toy {worst_toy:.2e} s, worst orbital {worst_orbital:.2e} s, "
        f"{elapsed:.1f} s)"
    )


def test_criterion_2_round_accounting_and_commutation(baseline_cfg, baseline_game, baseline_distributed):
    _, result, _, _ = baseline_distributed
    # Every round's improvement equals the sum of its innovators' regrets,
    # and no two innovators of a round are ever neighbors.
    phi_prev = global_value(baseline_game, StrategyProfile.zeros(baseline_game.n_agents))
    worst = 0.0
    for trace in result.traces:
        gained = sum(trace.regrets[k] for k in trace.innovators)
        worst = max(worst, abs((trace.phi - phi_prev) - gained))
        assert trace.phi - phi_prev == pytest.approx(gained, abs=1e-6)
        assert trace.phi >= phi_prev - 1e-9
        for a in trace.innovators:
            assert not (set(trace.innovators) & baseline_game.neighbors(a))
        phi_prev = trace.phi

    # A captured two-innovator round commutes: sequential application in both
    # orders reproduces the simultaneous improvement. Checked on the round-one
    # orbital election and on a toy built to elect exactly two.
    captured = []
    start = StrategyProfile.zeros(baseline_game.n_agents)
    cover = CoverCount(baseline_game, start)
    trace1 = run_round(
        baseline_game,
        dict.fromkeys(baseline_game.active_indices, True),
        cover,
        baseline_cfg.search,
        iteration=1,
    )
    after = StrategyProfile(cover.theta)
    if len(trace1.innovators) == 2:
        captured.append((baseline_game, after, trace1))
    toy = two_cluster_game()
    toy_start = StrategyProfile.zeros(toy.n_agents)
    toy_cover = CoverCount(toy, toy_start)
    toy_trace = run_round(
        toy,
        dict.fromkeys(toy.active_indices, True),
        toy_cover,
        SearchConfig(0.1, 1),
    )
    toy_new = StrategyProfile(toy_cover.theta)
    assert len(toy_trace.innovators) == 2
    captured.append((toy, toy_new, toy_trace))

    for game, adopted, trace in captured:
        a, b = trace.innovators
        assert b not in game.neighbors(a)
        zeros = StrategyProfile.zeros(game.n_agents)
        phi0 = global_value(game, zeros)
        for order in ((a, b), (b, a)):
            profile = zeros
            for k in order:
                profile = profile.replace(k, adopted.for_agent(k))
            assert global_value(game, profile) - phi0 == pytest.approx(
                trace.phi - phi0, abs=1e-6
            )
    print(
        f"\nPASS criterion 2: round accounting on {len(result.traces)} rounds "
        f"(worst gap {worst:.2e} s) and 2-innovator commutation on "
        f"{len(captured)} captured rounds"
    )


def test_criterion_3_convergence_within_budget_and_certification(
    baseline_cfg, baseline_game, baseline_distributed
):
    report, result, _, elapsed = baseline_distributed
    assert result.converged_at is not None
    rounds_to_converge = result.converged_at + 1
    assert rounds_to_converge <= baseline_cfg.search.max_rounds == 20
    assert rounds_to_converge <= round_bound(baseline_cfg)
    assert result.traces[result.converged_at].innovators == ()
    # Explicit re-certification at the stated accuracy.
    certification = certify_epsilon_equilibrium(
        baseline_game, CoverCount(baseline_game, result.final_profile), epsilon=0.1
    )
    assert certification.certified
    assert report.certified
    assert elapsed < 300.0
    print(
        f"\nPASS criterion 3: converged in {rounds_to_converge} rounds "
        f"(budget 20, guarantee {round_bound(baseline_cfg)}), certified at "
        f"0.1 s (exact worst gain {certification.worst_gain:.3g} s), "
        f"{elapsed:.1f} s"
    )


def lattice_toy_game():
    """Four window-sliding agents whose strategies quantize to a 9-point grid."""
    from covgame.game import AgentSpec, GameInstance, StrategyInterval
    from conftest import as_generator, lattice, window_mask

    grid = TimeGrid(0.0, 60.0, 1.0)
    space = StrategyInterval(-1.0, 1.0)
    bases = (5, 17, 29, 41)
    width = 14

    def coverage(k, theta):
        shift = int(np.round(theta / 0.25))
        return window_mask(grid, bases[k - 1] + shift, width)

    as_generator(coverage, grid, lattice(1.0, 0.25))

    agents = tuple(AgentSpec(k, space, 1.0) for k in (1, 2, 3, 4))
    return GameInstance(agents, grid, coverage, 0.05)


def lattice_objective(profile_theta):
    """Criterion-4 oracle objective: plain numpy, no package set algebra."""
    bases = (5, 17, 29, 41)
    covered = np.zeros(60, dtype=bool)
    for k in range(4):
        start = bases[k] + int(np.round(profile_theta[k] / 0.25))
        covered[max(start, 0) : min(start + 14, 60)] = True
    return float(covered.sum()) - 0.05 * float(np.sum(np.square(profile_theta)))


def test_criterion_4_exhaustive_lattice_oracle():
    game = lattice_toy_game()
    lattice = np.linspace(-1.0, 1.0, 9)
    # Exhaustive oracle over all 9^4 lattice profiles, built first.
    global_max = -math.inf
    for combo in itertools.product(lattice, repeat=4):
        global_max = max(global_max, lattice_objective(np.array(combo)))

    cfg = SearchConfig(epsilon=1e-4, max_rounds=30)
    corners = list(itertools.product((-1.0, 1.0), repeat=4))[:10]
    tol = 2 * cfg.epsilon
    reached = []
    for corner in corners:
        result = run_search(game, StrategyProfile(np.array(corner)), cfg)
        assert result.converged_at is not None and result.certified
        theta = np.array(result.final_profile.theta)
        final_value = lattice_objective(theta)
        # No unilateral lattice move may beat the converged profile.
        for k in range(4):
            for v in lattice:
                deviated = theta.copy()
                deviated[k] = v
                assert lattice_objective(deviated) <= final_value + tol
        assert final_value >= 0.9 * global_max
        reached.append(final_value)
    print(
        f"\nPASS criterion 4: exhaustive 9^4 oracle max {global_max:.3f}; "
        f"10 corner starts reached {min(reached):.3f}..{max(reached):.3f} "
        f"(>= 90% and lattice-stable)"
    )


def test_criterion_5_damaged_pair_comparison(baseline_distributed, baseline_centralized):
    dist_report, _, _, _ = baseline_distributed
    cent_report, _ = baseline_centralized
    gap = abs(dist_report.value - cent_report.value) / cent_report.value
    ratio = dist_report.wall_time / cent_report.wall_time
    assert gap <= 0.02
    assert ratio < 0.25
    print(
        f"\nPASS criterion 5: values {dist_report.value:.1f} vs "
        f"{cent_report.value:.1f} s (gap {gap * 100:.2f}%), walls "
        f"{dist_report.wall_time:.3f} vs {cent_report.wall_time:.3f} s "
        f"(ratio {ratio * 100:.1f}%)"
    )


def test_criterion_6_scaling_shape(baseline_cfg):
    import dataclasses

    # The scaling experiment fixes the damaged pair at {10, 15}; indices
    # beyond a sweep point's constellation size drop out.
    sweep_cfg = dataclasses.replace(baseline_cfg, damaged=(10, 15))
    counts = [8, 12, 16, 24]
    dist_time = {n: math.inf for n in counts}
    cent_time = {n: math.inf for n in counts}
    values = {}
    for _ in range(2):  # best-of-two timing to damp scheduler noise
        for n in counts:
            point = sweep_cfg.with_satellite_count(n)
            rd, _ = run_distributed(point)
            rc, _ = run_centralized(point)
            dist_time[n] = min(dist_time[n], rd.wall_time)
            cent_time[n] = min(cent_time[n], rc.wall_time)
            values[n] = (rd.value, rc.value)
    cent_series = [cent_time[n] for n in counts]
    assert all(b > a for a, b in zip(cent_series, cent_series[1:]))
    cent_ratio = cent_time[24] / cent_time[8]
    dist_ratio = dist_time[24] / dist_time[8]
    assert cent_ratio >= 2.0 * dist_ratio
    print(
        f"\nPASS criterion 6: centralized walls {['%.3f' % t for t in cent_series]} s "
        f"strictly increasing; 24/8 ratios centralized {cent_ratio:.1f}x vs "
        f"distributed {dist_ratio:.1f}x"
    )


def test_criterion_7_energy_surplus_trend(baseline_cfg):
    values = [0.005 * 2**k for k in range(6)]
    points = sweep_energy_coefficient(baseline_cfg, 11, values)
    magnitudes = [p.abs_theta_agent for p in points]
    tol = 5e-3 * DEG
    for prev, nxt in zip(magnitudes, magnitudes[1:]):
        assert nxt >= prev - tol
    assert abs(magnitudes[-1] - magnitudes[-2]) <= tol
    assert magnitudes[-1] > magnitudes[0]
    print(
        f"\nPASS criterion 7: |theta_11| over geometric surplus grid = "
        f"{['%.3f' % math.degrees(m) for m in magnitudes]} deg "
        f"(non-decreasing, saturated)"
    )


def test_criterion_8_orbital_sanity(baseline_cfg, rng):
    # Rotation orthonormality.
    worst_ortho = 0.0
    for angle in rng.uniform(-10.0, 10.0, 200):
        for rot in (rot_x, rot_y, rot_z):
            r = rot(float(angle))
            worst_ortho = max(worst_ortho, float(np.abs(r @ r.T - np.eye(3)).max()))
    assert worst_ortho <= 1e-12

    # Earth-fixed positions keep the orbit radius.
    spec = baseline_cfg.constellation
    rates = drift_rates(baseline_cfg.constants, spec)
    worst_norm = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 25))
        pos = satellite_position_ecf(
            baseline_cfg.constants, spec, rates, k,
            float(rng.uniform(-0.26, 0.26)), float(rng.uniform(0.0, 86400.0)),
        )
        worst_norm = max(
            worst_norm, abs(np.linalg.norm(pos) - spec.semi_major_axis) / spec.semi_major_axis
        )
    assert worst_norm <= 1e-9

    period_min = orbital_period(baseline_cfg.constants, spec) / 60.0
    assert 90.0 <= period_min <= 100.0

    # Peak shaving: clipping multiplicity at one integrates to the union.
    grid = TimeGrid(0.0, 500.0, 2.5)
    for _ in range(1000):
        n_sets = int(rng.integers(1, 8))
        masks = rng.random((n_sets, grid.n_steps)) < rng.uniform(0.05, 0.7)
        assert grid.dt * np.count_nonzero(union_many(masks, grid.n_steps)) == (
            np.minimum(masks.sum(axis=0), 1).sum() * grid.dt
        )
    print(
        f"\nPASS criterion 8: orthonormality {worst_ortho:.1e}, radius error "
        f"{worst_norm:.1e}, period {period_min:.2f} min, peak-shaving exact on "
        f"1000 mask families"
    )


def test_criterion_9_locality_audit(baseline_game, baseline_distributed):
    _, _, audit, _ = baseline_distributed
    assert audit.reads, "instrumentation must observe the exchanges"
    violations = audit.violations(baseline_game.neighbor_positions)
    assert violations == []
    print(
        f"\nPASS criterion 9: {len(audit.reads)} recorded cross-agent reads, "
        f"0 outside the neighbor graph"
    )
