"""Orbital model: frames, drift, visibility, and the wired coverage game.

Golden numbers were computed once with a standalone scalar-math script that
implements the same stated formula chain with explicit rotation matrices and
no shared code, then frozen here.
"""
import copy
import functools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covgame.game import (
    CONTAINS_TOL,
    AgentSpec,
    CoverCount,
    GameInstance,
    StrategyInterval,
    StrategyProfile,
    best_response_gain,
    best_response_objective,
    certify_epsilon_equilibrium,
    covered_value,
    energy_penalty,
    global_value,
    neighbor_positions_from_reaches,
)
from covgame.measure import TimeGrid
from covgame.optimize import maximize_scalar
from covgame.orbit import (
    _PhaseRow,
    _Reach,
    ConstellationCoverage,
    ConstellationSpec,
    OrbitConstants,
    TargetSpec,
    build_constellation_game,
    drift_rates,
    mean_motion,
    orbital_period,
    target_position_ecf,
)
from covgame.scenario import bundled_scenario_path, parse_scenario
from covgame.search import SearchConfig, run_round

from conftest import (
    CallCounter,
    WholeCountCompares,
    alone,
    graph_positions,
    neighbor_sets,
    pairwise_graph,
    reach_mask,
    sampled_reach_graph,
)
from oracles import cell_starts, geocentric_angle, rot_x, rot_y, rot_z, satellite_position_ecf

DEG = math.pi / 180.0

CONSTANTS = OrbitConstants()
TABLE_SPEC = ConstellationSpec.equally_spaced(
    n_satellites=24,
    semi_major_axis=6896.27,
    inclination=98.0 * DEG,
    raan0=284.507 * DEG,
    greenwich_angle0=284.507 * DEG,
)
TABLE_TARGET = TargetSpec(
    longitude=121.3 * DEG, latitude=31.1 * DEG, view_half_angle=9.45 * DEG
)
DAY_GRID = TimeGrid(0.0, 86400.0, 5.0)

# Frozen oracle outputs for the constellation above.
GOLDEN_NODE_RATE = 2.1312380723717832e-07
GOLDEN_PHASE_RATE = 0.00110169987786766
GOLDEN_S1_ECF_1000S = (-2139.805608280324, 2423.633064654395, -6091.450946990054)
GOLDEN_TARGET_ECF = (-2837.295845586292, 4666.531862879013, 3294.520336577496)
GOLDEN_S1_DAY_MEASURE = 360.0
GOLDEN_S1_DAY_WINDOWS = 2
GOLDEN_UNION_NOMINAL = 9435.0
GOLDEN_UNION_DAMAGED_10_23 = 8795.0

# A smaller ring for the graph property, which builds a game per example.
RING_SPEC = ConstellationSpec.equally_spaced(
    n_satellites=8,
    semi_major_axis=6896.27,
    inclination=98.0 * DEG,
    raan0=284.507 * DEG,
    greenwich_angle0=284.507 * DEG,
)

# Every strategy a phase offset can take.
FULL_CIRCLE = StrategyInterval(-math.pi, math.pi)

# Coverage models shared by the batch-scan property: the table target, and a
# target whose view half-angle exceeds 90 degrees.
SCAN_GRID = TimeGrid(0.0, 86400.0, 120.0)
TABLE_COVERAGE = ConstellationCoverage(
    CONSTANTS, TABLE_SPEC, TABLE_TARGET, SCAN_GRID, FULL_CIRCLE
)
WIDE_COVERAGE = ConstellationCoverage(
    CONSTANTS,
    TABLE_SPEC,
    TargetSpec(TABLE_TARGET.longitude, TABLE_TARGET.latitude, 150.0 * DEG),
    SCAN_GRID,
    FULL_CIRCLE,
)


def day_coverage(spec=TABLE_SPEC, interval=FULL_CIRCLE):
    """Coverage of the table target over one day at 5 s."""
    return ConstellationCoverage(CONSTANTS, spec, TABLE_TARGET, DAY_GRID, interval)


def on_grid(cov, mask):
    """Scatter a mask over ``cov.cells`` into one entry per grid cell."""
    full = np.zeros(cov.grid.n_steps, dtype=bool)
    full[cov.cells] = mask
    return full


class TestRotations:
    def test_orthonormal(self, rng):
        for angle in rng.uniform(-10.0, 10.0, 50):
            for rot in (rot_x, rot_y, rot_z):
                r = rot(angle)
                assert np.abs(r @ r.T - np.eye(3)).max() <= 1e-12
                assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_z_rotation_turns_x_to_y(self):
        assert np.allclose(rot_z(math.pi / 2.0) @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])

    def test_x_rotation_turns_y_to_z(self):
        assert np.allclose(rot_x(math.pi / 2.0) @ [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])


class TestDriftRates:
    def test_polar_orbit_has_no_node_drift(self):
        spec = ConstellationSpec.equally_spaced(4, 7000.0, 90.0 * DEG, 0.0, 0.0)
        assert drift_rates(CONSTANTS, spec).node_rate == pytest.approx(0.0, abs=1e-20)

    def test_no_oblateness_reduces_to_two_body(self):
        constants = OrbitConstants(j2=0.0)
        spec = ConstellationSpec.equally_spaced(4, 7000.0, 51.6 * DEG, 0.0, 0.0)
        rates = drift_rates(constants, spec)
        assert rates.node_rate == 0.0
        assert rates.phase_rate == mean_motion(constants, spec)

    def test_table_orbit_golden_rates(self):
        rates = drift_rates(CONSTANTS, TABLE_SPEC)
        assert rates.node_rate == pytest.approx(GOLDEN_NODE_RATE, rel=1e-12)
        assert rates.phase_rate == pytest.approx(GOLDEN_PHASE_RATE, rel=1e-12)

    def test_table_orbit_period_is_low_earth(self):
        period_min = orbital_period(CONSTANTS, TABLE_SPEC) / 60.0
        assert 90.0 <= period_min <= 100.0

    def test_retrograde_node_drift_is_prograde(self):
        # cos(98 deg) < 0 flips the node drift positive for this orbit.
        assert drift_rates(CONSTANTS, TABLE_SPEC).node_rate > 0.0


class TestPositions:
    def test_all_rotations_identity_puts_satellite_on_x_axis(self):
        spec = ConstellationSpec(
            semi_major_axis=7000.0,
            inclination=0.0,
            raan0=0.0,
            greenwich_angle0=0.0,
            mean_anomalies0=(0.0,),
        )
        constants = OrbitConstants(j2=1e-30)
        rates = drift_rates(constants, spec)
        pos = satellite_position_ecf(constants, spec, rates, 1, 0.0, 0.0)
        assert np.allclose(pos, [7000.0, 0.0, 0.0], atol=1e-9)

    def test_norm_preserved_everywhere(self, rng):
        rates = drift_rates(CONSTANTS, TABLE_SPEC)
        for _ in range(100):
            k = int(rng.integers(1, 25))
            theta = rng.uniform(-0.5, 0.5)
            t = rng.uniform(0.0, 86400.0)
            pos = satellite_position_ecf(CONSTANTS, TABLE_SPEC, rates, k, theta, t)
            assert np.linalg.norm(pos) == pytest.approx(6896.27, rel=1e-9)

    def test_golden_position_table_satellite_one(self):
        rates = drift_rates(CONSTANTS, TABLE_SPEC)
        pos = satellite_position_ecf(CONSTANTS, TABLE_SPEC, rates, 1, 0.0, 1000.0)
        assert pos == pytest.approx(GOLDEN_S1_ECF_1000S, rel=1e-12)

    def test_independent_scalar_recomputation(self):
        # Same chain, hand-expanded matrices, plain floats.
        rates = drift_rates(CONSTANTS, TABLE_SPEC)
        t = 1000.0
        m = TABLE_SPEC.mean_anomalies0[0] + rates.phase_rate * t
        x_o = (6896.27 * math.cos(m), 6896.27 * math.sin(m), 0.0)
        xi = rot_x(-TABLE_SPEC.inclination) @ x_o
        raan = TABLE_SPEC.raan0 + rates.node_rate * t
        eci = rot_z(-raan) @ xi
        ecf = rot_z(-(TABLE_SPEC.greenwich_angle0 + CONSTANTS.earth_rotation_rate * t)) @ eci
        pos = satellite_position_ecf(CONSTANTS, TABLE_SPEC, rates, 1, 0.0, t)
        assert np.allclose(pos, ecf, atol=1e-9)


class TestTargetPosition:
    def test_equator_prime_meridian(self):
        tgt = TargetSpec(0.0, 0.0, 0.1)
        assert np.allclose(
            target_position_ecf(CONSTANTS, tgt), [CONSTANTS.earth_radius, 0.0, 0.0]
        )

    def test_north_pole(self):
        tgt = TargetSpec(0.0, math.pi / 2.0, 0.1)
        assert np.allclose(
            target_position_ecf(CONSTANTS, tgt),
            [0.0, 0.0, CONSTANTS.earth_radius],
            atol=1e-12,
        )

    def test_golden_city_target(self):
        pos = target_position_ecf(CONSTANTS, TABLE_TARGET)
        assert pos == pytest.approx(GOLDEN_TARGET_ECF, rel=1e-12)
        assert np.linalg.norm(pos) == pytest.approx(CONSTANTS.earth_radius, rel=1e-12)


class TestGeocentricAngle:
    def test_identical_directions(self):
        assert geocentric_angle(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 6.0])) == 0.0

    def test_antipodal(self):
        u = np.array([1.0, 0.0, 0.0])
        assert geocentric_angle(u, -u) == pytest.approx(math.pi)

    def test_orthogonal(self):
        assert geocentric_angle(
            np.array([1.0, 0.0, 0.0]), np.array([0.0, 5.0, 0.0])
        ) == pytest.approx(math.pi / 2.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            geocentric_angle(np.zeros(3), np.array([1.0, 0.0, 0.0]))

    def test_clamps_rounding(self):
        u = np.array([1.0, 1e-8, 0.0])
        assert geocentric_angle(u, u) == 0.0


class TestCoverage:
    def test_degenerate_full_visibility(self):
        grid = TimeGrid(0.0, 600.0, 5.0)
        tgt = TargetSpec(TABLE_TARGET.longitude, TABLE_TARGET.latitude, math.pi)
        cov = ConstellationCoverage(CONSTANTS, TABLE_SPEC, tgt, grid, FULL_CIRCLE)
        c = on_grid(cov, cov(1, 0.0))
        assert grid.dt * np.count_nonzero(c) == grid.duration

    def test_vanishing_aperture_empty(self):
        tgt = TargetSpec(TABLE_TARGET.longitude, TABLE_TARGET.latitude, 1e-9)
        cov = ConstellationCoverage(CONSTANTS, TABLE_SPEC, tgt, DAY_GRID, FULL_CIRCLE)
        c = cov(1, 0.0)
        assert not c.any()

    def test_golden_day_measure_and_window_shape(self):
        cov = day_coverage()
        c = on_grid(cov, cov(1, 0.0))
        assert DAY_GRID.dt * np.count_nonzero(c) == GOLDEN_S1_DAY_MEASURE
        runs = np.diff(np.flatnonzero(np.diff(np.r_[0, c.view(np.int8), 0])))
        window_lengths = runs[::2]
        assert len(window_lengths) == GOLDEN_S1_DAY_WINDOWS
        # Each pass is shorter than half an hour of grid cells.
        assert (window_lengths * DAY_GRID.dt < 1800.0).all()

    def test_matches_position_chain_oracle(self):
        # Independent route: explicit per-cell positions and angle threshold.
        rates = drift_rates(CONSTANTS, TABLE_SPEC)
        tgt_pos = target_position_ecf(CONSTANTS, TABLE_TARGET)
        cov = day_coverage()
        for k, theta in ((1, 0.0), (7, 0.21), (16, -0.26)):
            expected = np.array(
                [
                    geocentric_angle(
                        satellite_position_ecf(CONSTANTS, TABLE_SPEC, rates, k, theta, t),
                        tgt_pos,
                    )
                    <= TABLE_TARGET.view_half_angle
                    for t in cell_starts(DAY_GRID)
                ]
            )
            got = on_grid(cov, cov(k, theta))
            assert np.array_equal(got, expected)

    def test_phase_shift_consistency(self):
        # The strategy enters only through the initial phase.
        theta = 0.2
        shifted = ConstellationSpec(
            semi_major_axis=TABLE_SPEC.semi_major_axis,
            inclination=TABLE_SPEC.inclination,
            raan0=TABLE_SPEC.raan0,
            greenwich_angle0=TABLE_SPEC.greenwich_angle0,
            mean_anomalies0=tuple(
                m + theta if i == 4 else m
                for i, m in enumerate(TABLE_SPEC.mean_anomalies0)
            ),
        )
        direct = day_coverage()
        rebased = day_coverage(spec=shifted)
        assert np.array_equal(
            on_grid(direct, direct(5, theta)), on_grid(rebased, rebased(5, 0.0))
        )

    @settings(max_examples=150, deadline=None)
    @given(
        wide=st.booleans(),
        k=st.integers(1, 24),
        thetas=st.lists(
            st.one_of(
                st.just(math.pi),
                st.floats(-math.pi, math.pi, exclude_min=True),
            ),
            min_size=1,
            max_size=24,
        ).map(sorted),
        within_seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_agree_with_single_masks(self, wide, k, thetas, within_seed):
        # The batch scan against the per-mask path on sorted grids anywhere in
        # (-pi, pi], including rows shifted by 2 pi and, through a view
        # half-angle above 90 deg, cells visible for every phase
        # (half_width == pi).
        cov = WIDE_COVERAGE if wide else TABLE_COVERAGE
        within = np.random.default_rng(within_seed).random(cov.cells.size) < 0.5
        counts = cov.masked_cell_counts(
            k, np.array(thetas), cov.breakpoints(k, within[cov.reach_positions(k)])
        )
        for theta, count in zip(thetas, counts):
            assert count == np.count_nonzero(cov(k, theta) & within)

    @settings(max_examples=150, deadline=None)
    @given(
        wide=st.booleans(),
        k=st.integers(1, 24),
        start=st.floats(-math.pi, math.pi, exclude_min=True),
        span=st.floats(0.0, 0.05),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24),
        within_seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_agree_on_a_narrow_span(
        self, wide, k, start, span, fractions, within_seed
    ):
        # All thetas in a sub-span of at most 0.05 rad, so most rows miss
        # every theta; spans that reach pi are clipped there and exercise
        # the rows shifted by 2 pi.
        cov = WIDE_COVERAGE if wide else TABLE_COVERAGE
        thetas = sorted(min(start + f * span, math.pi) for f in fractions)
        within = np.random.default_rng(within_seed).random(cov.cells.size) < 0.5
        counts = cov.masked_cell_counts(
            k, np.array(thetas), cov.breakpoints(k, within[cov.reach_positions(k)])
        )
        for theta, count in zip(thetas, counts):
            assert count == np.count_nonzero(cov(k, theta) & within)

    def test_wide_target_reaches_full_phase_arcs(self):
        # Guard for the property above: some cells of the wide target are
        # covered for every phase, so the half_width == pi branch is exercised.
        always = np.logical_and.reduce(
            [WIDE_COVERAGE(1, float(t)) for t in np.linspace(-math.pi, math.pi, 37)]
        )
        assert always.any()

    @pytest.mark.parametrize("wide", [False, True], ids=["table", "wide"])
    def test_counts_agree_at_every_breakpoint(self, wide):
        # The ends of the segment rows are the exact points a best response
        # scores, and where rows of one cell that touched would be counted
        # twice; random thetas almost never land on them.
        cov = WIDE_COVERAGE if wide else TABLE_COVERAGE
        within = np.ones(cov.cells.size, dtype=bool)
        for k in range(1, 25):
            ends = cov.breakpoints(k, within[cov.reach_positions(k)])
            thetas = np.unique(np.concatenate(ends))
            thetas = thetas[(thetas >= -math.pi) & (thetas <= math.pi)]
            assert thetas.size > 0
            counts = cov.masked_cell_counts(k, thetas, ends)
            singles = [np.count_nonzero(cov(k, theta)) for theta in thetas]
            assert np.array_equal(counts, singles)

    def test_unsorted_strategies_are_rejected(self, rng):
        cov = day_coverage()
        within = np.ones(cov.cells.size, dtype=bool)
        for thetas in (rng.uniform(-0.2, 0.2, 17), np.array([0.0, math.nan, 0.1])):
            with pytest.raises(ValueError, match="sorted"):
                cov.masked_cell_counts(1, thetas, within)

    @pytest.mark.parametrize(
        "thetas, error",
        [
            ([0.1, 0.0, -0.1], "sorted"),
            ([-0.1, 0.0, math.nan, 0.1], "sorted"),
            ([0.05], None),
            ([-0.05, 0.05, 0.05, 0.05], None),
            ([-0.3, 0.0], "outside"),
            ([0.0, 0.3], "outside"),
        ],
        ids=["descending", "nan-inside", "single", "repeated", "below", "above"],
    )
    def test_strategy_input_checks(self, thetas, error):
        cov = day_coverage(interval=StrategyInterval(-0.2, 0.2))
        within = np.ones(cov.cells.size, dtype=bool)
        ends = cov.breakpoints(3, within[cov.reach_positions(3)])
        if error is not None:
            with pytest.raises(ValueError, match=error):
                cov.masked_cell_counts(3, np.array(thetas), ends)
        else:
            counts = cov.masked_cell_counts(3, np.array(thetas), ends)
            assert counts.tolist() == [np.count_nonzero(cov(3, t)) for t in thetas]

    def test_reach_covers_every_strategy(self, rng):
        interval = StrategyInterval(-15.0 * DEG, 15.0 * DEG)
        cov = day_coverage(interval=interval)
        reach = on_grid(cov, reach_mask(cov, 9))
        for theta in rng.uniform(interval.lo, interval.hi, 40):
            mask = on_grid(cov, cov(9, float(theta)))
            assert not np.any(mask & ~reach)


class TestBuiltInterval:
    """A coverage built for one strategy interval against the full circle."""

    @settings(max_examples=150, deadline=None)
    @given(
        wide=st.booleans(),
        k=st.integers(1, 24),
        ends=st.tuples(
            st.one_of(
                st.just(-math.pi),
                st.floats(-math.pi, -math.pi + 0.1),
                st.floats(-math.pi, math.pi),
            ),
            st.one_of(
                st.just(math.pi),
                st.floats(math.pi - 0.1, math.pi),
                st.floats(-math.pi, math.pi),
            ),
        ).map(sorted),
        start=st.floats(0.0, 1.0),
        span=st.floats(0.0, 1.0),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
        within_seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_full_circle(
        self, wide, k, ends, start, span, fractions, within_seed
    ):
        # Masks, batch counts and reach over strategies in the interval,
        # both ends included, on sub-spans of any width; intervals that end
        # near +-pi keep the rows shifted by 2 pi live.
        full = WIDE_COVERAGE if wide else TABLE_COVERAGE
        interval = StrategyInterval(*ends)
        cov = ConstellationCoverage(
            CONSTANTS, TABLE_SPEC, full.target, SCAN_GRID, interval
        )
        assert np.array_equal(cov.cells, full.cells)
        lo, width = interval.lo, interval.width
        inner = [
            min(lo + (start + f * span * (1.0 - start)) * width, interval.hi)
            for f in fractions
        ]
        within = np.random.default_rng(within_seed).random(cov.cells.size) < 0.5
        reach = reach_mask(cov, k)
        for thetas in (sorted(inner), [interval.lo, *sorted(inner), interval.hi]):
            for theta in thetas:
                mask = cov(k, theta)
                assert np.array_equal(mask, full(k, theta))
                assert not np.any(mask & ~reach)
            thetas = np.array(thetas)
            ends = cov.breakpoints(k, within[cov.reach_positions(k)])
            full_ends = full.breakpoints(k, within[full.reach_positions(k)])
            assert np.array_equal(
                cov.masked_cell_counts(k, thetas, ends),
                full.masked_cell_counts(k, thetas, full_ends),
            )

    @pytest.mark.parametrize(
        "interval, thetas",
        [
            (StrategyInterval(math.pi - 0.1, math.pi), (math.pi, math.pi - 0.05)),
            (StrategyInterval(-math.pi, -math.pi + 0.1), (-math.pi, -math.pi + 0.05)),
        ],
    )
    def test_masks_near_the_seam_match_the_position_chain(self, interval, thetas):
        # Offsets near +-pi cover many cells only through a 2 pi shift of
        # their covering interval. An independent route: explicit positions
        # and the angle threshold, away from cells within 1e-9 rad of it.
        rates = drift_rates(CONSTANTS, TABLE_SPEC)
        tgt_pos = target_position_ecf(CONSTANTS, TABLE_TARGET)
        cov = ConstellationCoverage(
            CONSTANTS, TABLE_SPEC, TABLE_TARGET, SCAN_GRID, interval
        )
        for k in (1, 5, 9, 13, 17, 21):
            for theta in thetas:
                angles = np.array(
                    [
                        geocentric_angle(
                            satellite_position_ecf(
                                CONSTANTS, TABLE_SPEC, rates, k, theta, t
                            ),
                            tgt_pos,
                        )
                        for t in cell_starts(SCAN_GRID)
                    ]
                )
                clear = np.abs(angles - TABLE_TARGET.view_half_angle) > 1e-9
                got = on_grid(cov, cov(k, theta))
                expected = angles <= TABLE_TARGET.view_half_angle
                assert np.array_equal(got[clear], expected[clear])

    def test_outside_the_interval_is_an_error(self):
        interval = StrategyInterval(-15.0 * DEG, 15.0 * DEG)
        cov = day_coverage(interval=interval)
        within = np.ones(cov.cells.size, dtype=bool)
        for theta in (interval.hi + 1e-9, interval.lo - 1e-9, 1.0, math.nan):
            with pytest.raises(ValueError, match="agent 3"):
                cov(3, theta)
        with pytest.raises(ValueError, match="agent 3"):
            ends = cov.breakpoints(3, within[cov.reach_positions(3)])
            cov.masked_cell_counts(3, np.array([0.0, interval.hi + 1e-9]), ends)

    def test_interval_must_lie_on_the_circle(self):
        with pytest.raises(ValueError, match="within"):
            day_coverage(interval=StrategyInterval(0.0, 4.0))

    def test_slack_past_the_end_gets_the_exact_mask(self):
        # Find the exact offset at which a cell of satellite 1 starts being
        # covered, end an interval just short of it, and probe inside the
        # 1e-12 slack that StrategyInterval.contains grants past that end.
        full = day_coverage()
        before, after = full(1, 0.0), full(1, 0.05)
        j = int(np.flatnonzero(after & ~before)[0])
        a, b = 0.0, 0.05
        while (mid := 0.5 * (a + b)) not in (a, b):
            if full(1, mid)[j]:
                b = mid
            else:
                a = mid
        interval = StrategyInterval(-0.1, b - 5e-14)
        theta = interval.hi + 1e-13
        assert interval.contains(theta) and not full(1, interval.hi)[j]
        cov = day_coverage(interval=interval)
        mask = cov(1, theta)
        assert mask[j]
        assert np.array_equal(mask, full(1, theta))
        assert j in cov.reach_positions(1)


def target_in_orbit_frame(spec, target, elapsed):
    """The unit target's in-plane components ``(v1, v2)``, over all ``elapsed``."""
    rates = drift_rates(CONSTANTS, spec)
    unit_target = target_position_ecf(CONSTANTS, target) / CONSTANTS.earth_radius
    alpha = (
        spec.raan0
        + rates.node_rate * elapsed
        + spec.greenwich_angle0
        + CONSTANTS.earth_rotation_rate * elapsed
    )
    ca, sa = np.cos(alpha), np.sin(alpha)
    v1 = ca * unit_target[0] - sa * unit_target[1]
    w2 = sa * unit_target[0] + ca * unit_target[1]
    ci, si = math.cos(spec.inclination), math.sin(spec.inclination)
    return v1, ci * w2 - si * unit_target[2]


def full_cell_tables(spec, target, grid, interval):
    """Reference build: every grid cell, and every visible cell per satellite.

    Returns the visible cells, each satellite's table as ``(cell, lo, hi,
    stop_row, stop)``, and the half-width of every visible cell's arc.
    """
    elapsed = cell_starts(grid) - grid.t0
    v1, v2 = target_in_orbit_frame(spec, target, elapsed)
    amp = np.hypot(v1, v2)
    cos_bar = math.cos(target.view_half_angle)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(amp > 0.0, cos_bar / amp, math.inf)
    visible = ratio <= 1.0
    if cos_bar <= 0.0:
        visible |= amp == 0.0
    cells = np.flatnonzero(visible)
    half_width = np.where(
        amp[cells] == 0.0, np.pi, np.arccos(np.clip(ratio[cells], -1.0, 1.0))
    )
    psi = np.arctan2(v2[cells], v1[cells])
    drift = drift_rates(CONSTANTS, spec).phase_rate * elapsed[cells]
    a = interval.lo - CONTAINS_TOL
    b = interval.hi + CONTAINS_TOL
    full = half_width == math.pi
    always = np.flatnonzero(full)
    part = np.flatnonzero(~full)
    tables = [
        full_cell_table(always, part, half_width[part], drift[part], psi[part], a, b, m0)
        for m0 in spec.mean_anomalies0
    ]
    return cells, tables, half_width


def full_cell_table(always, part, half_width, drift, psi, a, b, m0):
    """Reference table of the satellite at phase ``m0`` over ``[a, b]``.

    ``always`` holds the cells visible for every phase, and entry ``i`` of
    ``half_width``, ``drift`` and ``psi`` the arc of cell ``part[i]``, in
    ascending cell order. Returns ``(cell, lo, hi, stop_row, stop)``.
    """
    neg_base = -(math.pi - np.mod(math.pi - (m0 + drift - psi), 2.0 * math.pi))
    lo = neg_base - half_width
    hi = neg_base + half_width
    index = [
        np.flatnonzero(hi - 2.0 * math.pi >= a),
        np.flatnonzero((lo <= b) & (hi >= a)),
        np.flatnonzero(lo + 2.0 * math.pi <= b),
    ]
    shift = np.repeat([-2.0 * math.pi, 0.0, 2.0 * math.pi], [i.size for i in index])
    index = np.concatenate(index)
    cell = np.concatenate((always, part[index]))
    lo = np.concatenate((np.full(always.size, -math.inf), lo[index] + shift))
    hi = np.concatenate((np.full(always.size, math.inf), hi[index] + shift))
    by_lo = np.argsort(lo)
    hi = hi[by_lo]
    stop_row = np.argsort(hi)
    return cell[by_lo], lo[by_lo], hi, stop_row, hi[stop_row]


def touching(spec, target, grid, k, upper, width):
    """An interval that ends exactly where a row of the widest arc ends.

    The row is one of satellite ``k``'s rows for the visible cell with the
    widest arc short of the whole circle, so its covering interval touches
    the built interval (after the ``CONTAINS_TOL`` widening) and lies at the
    farthest distance from the interval's middle that any row can. Returns
    ``None`` when no such row end lies on the circle.
    """
    _, tables, half_width = full_cell_tables(spec, target, grid, FULL_CIRCLE)
    widths = np.where(half_width < math.pi, half_width, -1.0)
    if widths.size == 0 or widths.max() < 0.0:
        return None
    cell, lo, hi = tables[k][:3]
    ends = (lo if upper else hi)[cell == int(np.argmax(widths))]
    ends = ends[np.abs(ends) <= math.pi - 1e-6]
    if ends.size == 0:
        return None
    end = float(ends[0])
    # The interval end whose widened end is exactly the row end.
    step = CONTAINS_TOL if upper else -CONTAINS_TOL
    x = end - step
    for _ in range(8):
        if x + step == end:
            break
        x = math.nextafter(x, -math.inf if x + step > end else math.inf)
    if upper:
        return StrategyInterval(max(-math.pi, x - width), min(x, math.pi))
    return StrategyInterval(max(x, -math.pi), min(math.pi, x + width))


# Grid lengths around multiples of the pre-pass stride, and steps from fine
# (the bound excludes most blocks) to coarse (it excludes none).
GRID_STEPS = st.one_of(
    st.integers(1, 3000),
    st.integers(1, 40).flatmap(lambda q: st.sampled_from([64 * q - 1, 64 * q, 64 * q + 1])),
)


@st.composite
def pruned_build_cases(draw):
    n_sat = draw(st.integers(1, 5))
    spec = ConstellationSpec(
        semi_major_axis=draw(st.floats(6600.0, 8000.0)),
        inclination=draw(st.floats(0.0, math.pi)),
        raan0=draw(st.floats(0.0, 2.0 * math.pi)),
        greenwich_angle0=draw(st.floats(0.0, 2.0 * math.pi)),
        mean_anomalies0=tuple(
            draw(st.lists(st.floats(-math.pi, math.pi), min_size=n_sat, max_size=n_sat))
        ),
    )
    dt = draw(st.sampled_from([1.0, 5.0, 30.0, 60.0, 600.0, 3600.0]))
    t0 = draw(st.sampled_from([0.0, 1234.5]))
    grid = TimeGrid(t0, t0 + draw(GRID_STEPS) * dt, dt)
    circle = st.floats(-math.pi, math.pi)
    longitude = draw(circle)
    latitude = draw(
        st.one_of(
            st.floats(-math.pi / 2, math.pi / 2),
            st.sampled_from([-math.pi / 2, math.pi / 2]),
        )
    )
    view = draw(
        st.one_of(
            st.floats(1e-3, math.pi),
            # Wide arcs: amp moves fastest near a small cos_bar.
            st.floats(math.pi / 3, math.pi / 2),
            st.floats(math.pi / 2, math.pi),
            st.sampled_from([math.pi / 2, math.pi]),
            # On the edge: the arc at one cell shrinks to a point.
            st.just(None),
        )
    )
    if view is None:
        elapsed = cell_starts(grid) - t0
        v1, v2 = target_in_orbit_frame(spec, TargetSpec(longitude, latitude, 1.0), elapsed)
        amp = float(np.hypot(v1, v2)[draw(st.integers(0, grid.n_steps - 1))])
        view = min(max(math.acos(min(amp, 1.0)), 1e-6), math.pi)
    target = TargetSpec(longitude, latitude, view)
    kind = draw(st.sampled_from(["full", "random", "narrow", "seam", "touch"]))
    interval = FULL_CIRCLE
    if kind == "random":
        interval = StrategyInterval(*sorted((draw(circle), draw(circle))))
    elif kind == "narrow":
        lo = draw(st.floats(-math.pi, math.pi - 0.1))
        interval = StrategyInterval(lo, lo + draw(st.floats(0.0, 0.1)))
    elif kind == "seam":
        width = draw(st.floats(0.0, 0.5))
        interval = draw(
            st.sampled_from(
                [
                    StrategyInterval(-math.pi, -math.pi + width),
                    StrategyInterval(math.pi - width, math.pi),
                ]
            )
        )
    elif kind == "touch":
        k = draw(st.integers(0, n_sat - 1))
        upper = draw(st.booleans())
        width = draw(st.floats(0.0, 0.5))
        interval = touching(spec, target, grid, k, upper, width) or FULL_CIRCLE
    return spec, target, grid, interval


# A very long, coarse grid: the angles the build forms round by far more
# than near pi.
LONG_SPEC = ConstellationSpec(
    7953.963316247314,
    1.8576803109932898,
    1.9712651772980823,
    1.3886031969378458,
    (1.8808188985328167, 1.9593336803275907, 0.846546988346343),
)
LONG_TARGET = TargetSpec(-0.08811787384753522, 1.0546154109312478, 1.0030992898953988)
LONG_GRID = TimeGrid(0.0, 5128 * 1e7, 1e7)


def ring(n_satellites):
    """The table constellation's orbit with ``n_satellites`` evenly spaced."""
    return ConstellationSpec.equally_spaced(
        n_satellites,
        TABLE_SPEC.semi_major_axis,
        TABLE_SPEC.inclination,
        TABLE_SPEC.raan0,
        TABLE_SPEC.greenwich_angle0,
    )


# A day at 30 s and the bundled strategy bounds: rings of 96 or more
# satellites fill several groups of windows.
GROUP_GRID = TimeGrid(0.0, 86400.0, 30.0)
GROUP_INTERVAL = StrategyInterval(-15.0 * DEG, 15.0 * DEG)


class TestPrunedBuild:
    """The build skips cells that cannot matter, and its tables show no trace of it."""

    @settings(max_examples=200, deadline=None)
    @given(case=pruned_build_cases())
    @example(
        # A polar orbit over an equatorial target with wide arcs: amp rises
        # steeply, and some visibility windows open late in a block.
        case=(
            ConstellationSpec(6896.27, math.pi / 2, 0.1, 0.0, (0.0,)),
            TargetSpec(0.0, 0.0, 80.0 * DEG),
            TimeGrid(0.0, 30000.0, 30.0),
            FULL_CIRCLE,
        )
    )
    @example(
        # About 1600 years in 1e7 s steps: the drift passes 5e7 rad, whose
        # rounding exceeds a fixed 1e-9 window slack, and the interval
        # touches a row of the widest arc.
        case=(
            LONG_SPEC,
            LONG_TARGET,
            LONG_GRID,
            touching(LONG_SPEC, LONG_TARGET, LONG_GRID, 0, False, 0.29377349997447116),
        )
    )
    def test_tables_match_the_full_cell_build(self, case):
        spec, target, grid, interval = case
        cov = ConstellationCoverage(CONSTANTS, spec, target, grid, interval)
        cells, tables, _ = full_cell_tables(spec, target, grid, interval)
        assert cov.cells.dtype == cells.dtype and cov.cells.tobytes() == cells.tobytes()
        assert len(cov._reach) == len(tables)
        for got, expected in zip(cov._reach, tables):
            assert got._fields == ("cell", "lo", "hi", "stop_row", "stop")
            for g, e in zip(got, expected, strict=True):
                assert g.dtype == e.dtype and g.tobytes() == e.tobytes()

    @pytest.mark.parametrize("view_deg", [30.0, 120.0])
    @pytest.mark.parametrize("n_satellites", [96, 240])
    def test_grouped_tables_match_the_full_cell_build(self, monkeypatch, n_satellites, view_deg):
        # Rings over a day at 30 s, whose windows of about 300 entries (at
        # 30 degrees) or of every entry (at 120) are built a group at a
        # time. Above 90 degrees every table has always-visible rows, which
        # the two per-table sorts must meet first.
        spec = ring(n_satellites)
        target = TargetSpec(TABLE_TARGET.longitude, TABLE_TARGET.latitude, view_deg * DEG)
        grid, interval = GROUP_GRID, GROUP_INTERVAL
        damaged = {3, 4, n_satellites // 2}
        groups = []
        group_tables = _PhaseRow.group_tables

        def recorded(row, m0, first, length):
            groups.append((row.part.size, m0, first, length))
            return group_tables(row, m0, first, length)

        monkeypatch.setattr(_PhaseRow, "group_tables", recorded)
        cov = ConstellationCoverage(CONSTANTS, spec, target, grid, interval, damaged)
        # What the build went through: more than one group, a damaged
        # satellite between two of one group's, and a window that runs past
        # the end of the sorted phase row into its next turn.
        satellite = {m0: k for k, m0 in enumerate(spec.mean_anomalies0, 1)}
        members = [[satellite[m0] for m0 in m0s.tolist()] for _, m0s, _, _ in groups]
        assert len(groups) > 1
        assert any(min(g) < k < max(g) for g in members for k in damaged)
        assert any(((first % size) + length > size).any() for size, _, first, length in groups)
        assert sorted(k for g in members for k in g) == [
            k for k in range(1, n_satellites + 1) if k not in damaged
        ]
        always = [got.lo[0] == -math.inf for got in cov._reach if got is not None and got.lo.size]
        assert any(always) == (view_deg > 90.0)
        assert_full_cell_tables(cov, spec, target, grid, interval, damaged)

    def test_long_windows_among_groups_match_the_full_cell_build(self, monkeypatch):
        # A budget of 300 entries: windows longer than it are built alone,
        # the others in groups, and the tables cannot tell.
        monkeypatch.setattr("covgame.orbit._GROUP_ENTRIES", 300)
        spec = ring(96)
        target = TargetSpec(TABLE_TARGET.longitude, TABLE_TARGET.latitude, 30.0 * DEG)
        grid, interval = GROUP_GRID, GROUP_INTERVAL
        alone = CallCounter(monkeypatch, _PhaseRow, "window_table")
        grouped = CallCounter(monkeypatch, _PhaseRow, "group_tables")
        cov = ConstellationCoverage(CONSTANTS, spec, target, grid, interval, {7})
        assert alone.calls > 0 and grouped.calls > 0
        assert_full_cell_tables(cov, spec, target, grid, interval, {7})

    def test_week_tables_match_the_full_cell_build(self, monkeypatch):
        # The bundled scenario over 7 days at 1 s: every window holds about
        # 10k entries and is built alone, and some run over the seam of the
        # phase row into its next turn.
        doc = json.loads(bundled_scenario_path().read_text())
        doc["grid"] = {"duration_s": 604800, "step_s": 1}
        cfg = parse_scenario(doc)
        assert cfg.constants == CONSTANTS
        seams = []
        window_table = _PhaseRow.window_table

        def recorded(row, m0, first, length):
            seams.append(first % row.part.size + length > row.part.size)
            return window_table(row, m0, first, length)

        monkeypatch.setattr(_PhaseRow, "window_table", recorded)
        spec, damaged = cfg.constellation, set(cfg.damaged)
        cov = ConstellationCoverage(
            CONSTANTS, spec, cfg.target, cfg.grid, cfg.strategy_space, damaged
        )
        assert len(seams) == spec.n_satellites - len(damaged) and any(seams)
        assert_full_cell_tables(cov, spec, cfg.target, cfg.grid, cfg.strategy_space, damaged)

    def test_equal_finite_starts_take_the_full_cell_build_order(self):
        # One arc at cells 5 and 2, so that their rows share both ends; the
        # row lists 5 first. The default sort does not keep the order of
        # equal keys, so a table is only that of a build over every cell if
        # its rows reach the sort in ascending cell order.
        row = _PhaseRow(
            always=np.zeros(0, dtype=np.intp),
            part=np.array([7, 5, 2, 9]),
            half_width=np.array([0.3, 0.2, 0.2, 0.1]),
            drift=np.array([40.0, 41.5, 41.5, 42.0]),
            psi=np.array([0.25, 0.5, 0.5, 0.75]),
            a=-math.pi,
            b=math.pi,
        )
        order = np.argsort(row.part)
        m0 = np.array([0.0, 1.0, 2.5])

        def expected(phase):
            arcs = (row.half_width[order], row.drift[order], row.psi[order])
            return full_cell_table(row.always, row.part[order], *arcs, row.a, row.b, phase)

        # From the row's start, and from past its seam.
        tables = [row.window_table(float(m0[0]), 0, 4), row.window_table(float(m0[1]), 2, 4)]
        tables += row.group_tables(m0, np.array([0, 2, 5]), np.array([4, 4, 4]))
        for got, phase in zip(tables, [*m0[:2], *m0], strict=True):
            assert np.unique(got.lo).size < got.lo.size
            for g, e in zip(got, expected(phase), strict=True):
                assert g.dtype == e.dtype and g.tobytes() == e.tobytes()


def assert_full_cell_tables(cov, spec, target, grid, interval, damaged):
    """``cov`` holds the cells and tables of :func:`full_cell_tables`, bit for bit.

    A damaged satellite holds no table.
    """
    cells, tables, _ = full_cell_tables(spec, target, grid, interval)
    assert cov.cells.dtype == cells.dtype and cov.cells.tobytes() == cells.tobytes()
    for k, (got, expected) in enumerate(zip(cov._reach, tables, strict=True), 1):
        if k in damaged:
            assert got is None
            continue
        for g, e in zip(got, expected, strict=True):
            assert g.dtype == e.dtype and g.tobytes() == e.tobytes()


def table_bytes(cov):
    """What a coverage keeps: its cells and every array of every table it holds."""
    tables = [table for table in cov._reach if table is not None]
    return cov.cells.nbytes + sum(array.nbytes for table in tables for array in table)


class TestBuildFootprint:
    """The build keeps its tables and little else, and builds no table it does not need."""

    def test_week_build_peaks_near_its_tables(self):
        # The bundled scenario over 7 days at 1 s, where a satellite's table
        # holds about 9.5k rows: the geometry of the candidate cells and the
        # window index must be gone before the tables pile up.
        doc = json.loads(bundled_scenario_path().read_text())
        doc["grid"] = {"duration_s": 604800, "step_s": 1}
        cfg = parse_scenario(doc)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            game = cfg.build_game()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = table_bytes(game.coverage_fn)
        assert peak <= 1.8 * kept, f"peak {peak} B against {kept} B kept"

    def test_large_ring_build_peaks_near_its_tables(self):
        # 1920 satellites evenly spaced over the bundled day, whose tables
        # of about 230 rows are all built in groups: the groups' windows
        # must not pile up beside the tables, which hold 20.5 MB.
        doc = json.loads(bundled_scenario_path().read_text())
        doc["constellation"].update(n_satellites=1920, phase_spacing_deg=0.1875)
        doc["damaged"] = []
        cfg = parse_scenario(doc)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            game = cfg.build_game()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = table_bytes(game.coverage_fn)
        assert peak <= 1.8 * kept, f"peak {peak} B against {kept} B kept"

    def test_graph_build_peaks_near_its_arrays(self):
        # 960 satellites evenly spaced over the bundled day, about 250
        # neighbors each: the graph keeps 2.1 MB of neighbor positions, and
        # building it must not hold a boolean mask of the cells per agent
        # or a set per agent (22 MB when it did).
        doc = json.loads(bundled_scenario_path().read_text())
        doc["constellation"].update(n_satellites=960, phase_spacing_deg=0.375)
        doc["damaged"] = []
        game = parse_scenario(doc).build_game()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            GameInstance(game.agents, game.grid, game.coverage_fn, game.gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6, f"peak {peak} B"

    @settings(max_examples=30, deadline=None)
    @given(damaged=st.sets(st.integers(1, 24)))
    def test_damaged_satellites_get_no_table(self, damaged):
        game = build_constellation_game(
            CONSTANTS, TABLE_SPEC, TABLE_TARGET, SCAN_GRID, 0.2, FULL_CIRCLE, 1.0, damaged
        )
        cov = game.coverage_fn
        assert cov.cells.tobytes() == TABLE_COVERAGE.cells.tobytes()
        for k in game.active_indices:
            expected = TABLE_COVERAGE._reach[k - 1]
            for g, e in zip(cov._reach[k - 1], expected, strict=True):
                assert g.dtype == e.dtype and g.tobytes() == e.tobytes()
        within = np.zeros(0, dtype=bool)
        for k in damaged:
            for lookup in (
                lambda: cov(k, 0.0),
                lambda: cov.covered_positions(k, 0.0),
                lambda: cov.breakpoints(k, within),
                lambda: cov.scan(k, within, -0.1, 0.0, 0.1),
                lambda: cov.reach_positions(k),
            ):
                with pytest.raises(ValueError, match=f"satellite {k} is damaged"):
                    lookup()

    def test_no_visible_cell_builds_empty_tables(self):
        target = TargetSpec(TABLE_TARGET.longitude, TABLE_TARGET.latitude, 1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            game = build_constellation_game(
                CONSTANTS, TABLE_SPEC, target, DAY_GRID, 0.2, FULL_CIRCLE, 1.0, {5}
            )
            cov = game.coverage_fn
            assert cov.cells.size == 0
            assert not cov(1, 0.0).any()
            ends = cov.breakpoints(1, np.zeros(0, dtype=bool))
            assert cov.masked_cell_counts(1, np.array([-1.0, 0.0]), ends).tolist() == [0, 0]
            candidates, counts, _ = cov.scan(1, np.zeros(0, dtype=bool), -1.0, 0.0, 1.0)
            assert (candidates.tolist(), counts.tolist()) == ([0.0], [0])
        assert table_bytes(cov) == 0
        assert cov._reach[4] is None
        assert all(game.neighbors(k) == frozenset() for k in game.active_indices)


@st.composite
def reaches(draw):
    """Reach positions of up to nine agents over ``n_cells`` cells.

    Each agent's positions come repeated and in random order, ascending or
    descending, or empty; ``n_cells`` favors word and byte boundaries.
    """
    agents = draw(st.lists(st.integers(1, 300), min_size=0, max_size=9, unique=True))
    n_cells = draw(st.one_of(st.integers(0, 300), st.sampled_from([63, 64, 65, 127, 128, 129])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reach = {}
    for k in agents:
        size = draw(st.sampled_from([0, 1, 3, n_cells // 10, n_cells // 2, 2 * n_cells]))
        positions = rng.integers(0, n_cells, size if n_cells else 0, dtype=np.intp)
        order = draw(st.sampled_from(["random", "ascending", "descending"]))
        if order != "random":
            positions.sort()
            if order == "descending":
                positions = positions[::-1]
        reach[k] = positions
    return reach, n_cells


def as_masks(reach, n_cells):
    """Each agent's reach positions as a boolean mask over ``n_cells`` cells."""
    masks = {}
    for k, positions in reach.items():
        masks[k] = np.zeros(n_cells, dtype=bool)
        masks[k][positions] = True
    return masks


class TestNeighborGraph:
    @settings(max_examples=200, deadline=None)
    @given(case=reaches())
    @example(case=({1: np.arange(128, dtype=np.intp)[::-1], 2: np.array([127, 127])}, 129))
    @example(case=({5: np.array([63, 0, 63]), 2: np.array([64]), 9: np.array([63])}, 65))
    def test_matches_the_pairwise_definition(self, case):
        # Keys ascend, and every neighbor array ascends and is read-only.
        reach, n_cells = case
        graph = neighbor_positions_from_reaches(reach, n_cells)
        expected = graph_positions(pairwise_graph(as_masks(reach, n_cells)))
        assert list(graph) == sorted(reach)
        for k, positions in graph.items():
            assert positions.dtype == np.intp
            assert not positions.flags.writeable
            assert np.all(np.diff(positions) > 0)
            assert positions.tolist() == expected[k].tolist()

    @pytest.mark.parametrize("length", [0, 1, 64, 65])
    def test_single_and_empty_agents_have_no_neighbors(self, length):
        full = np.arange(length, dtype=np.intp)
        empty = np.zeros(0, dtype=np.intp)
        graph = neighbor_positions_from_reaches({7: full}, length)
        assert {k: v.tolist() for k, v in graph.items()} == {7: []}
        graph = neighbor_positions_from_reaches({7: full, 3: empty}, length)
        assert {k: v.tolist() for k, v in graph.items()} == {3: [], 7: []}


class TestConstellationGame:
    def test_all_damaged_scores_zero(self):
        game = build_constellation_game(
            CONSTANTS,
            TABLE_SPEC,
            TABLE_TARGET,
            DAY_GRID,
            0.2,
            StrategyInterval(-15 * DEG, 15 * DEG),
            1.0,
            damaged=set(range(1, 25)),
        )
        assert global_value(game, StrategyProfile.zeros(24)) == 0.0

    def test_single_satellite_scores_own_measure(self):
        spec = ConstellationSpec.equally_spaced(
            1, 6896.27, 98.0 * DEG, TABLE_SPEC.raan0, TABLE_SPEC.greenwich_angle0
        )
        game = build_constellation_game(
            CONSTANTS, spec, TABLE_TARGET, DAY_GRID, 0.2,
            StrategyInterval(-15 * DEG, 15 * DEG), 1.0,
        )
        assert global_value(game, StrategyProfile.zeros(1)) == GOLDEN_S1_DAY_MEASURE

    def test_nominal_union_golden(self):
        game = build_constellation_game(
            CONSTANTS, TABLE_SPEC, TABLE_TARGET, DAY_GRID, 0.2,
            StrategyInterval(-15 * DEG, 15 * DEG), 1.0,
        )
        assert global_value(game, StrategyProfile.zeros(24)) == GOLDEN_UNION_NOMINAL

    def test_damaged_union_golden(self):
        game = build_constellation_game(
            CONSTANTS, TABLE_SPEC, TABLE_TARGET, DAY_GRID, 0.2,
            StrategyInterval(-15 * DEG, 15 * DEG), 1.0, damaged={10, 23},
        )
        assert global_value(game, StrategyProfile.zeros(24)) == GOLDEN_UNION_DAMAGED_10_23

    def test_ring_adjacency_always_linked(self):
        game = build_constellation_game(
            CONSTANTS, TABLE_SPEC, TABLE_TARGET, DAY_GRID, 0.2,
            StrategyInterval(-15 * DEG, 15 * DEG), 1.0,
        )
        for k in range(1, 25):
            left = 24 if k == 1 else k - 1
            right = 1 if k == 24 else k + 1
            assert left in game.neighbors(k)
            assert right in game.neighbors(k)

    def test_graph_limited_to_phase_reachable_band(self):
        # +-15 deg strategies on a 15 deg ring cannot link satellites more
        # than three slots apart.
        game = build_constellation_game(
            CONSTANTS, TABLE_SPEC, TABLE_TARGET, DAY_GRID, 0.2,
            StrategyInterval(-15 * DEG, 15 * DEG), 1.0,
        )
        for k in range(1, 25):
            for l in game.neighbors(k):
                ring_gap = min((k - l) % 24, (l - k) % 24)
                assert 1 <= ring_gap <= 3

    def test_exact_reach_graph_matches_sampled_closure(self):
        # Two independent constructions: per-cell strategy-interval
        # intersection vs a 64-point union of coverage samples.
        game = build_constellation_game(
            CONSTANTS, TABLE_SPEC, TABLE_TARGET, DAY_GRID, 0.2,
            StrategyInterval(-15 * DEG, 15 * DEG), 1.0, damaged={10, 23},
        )
        sampled = sampled_reach_graph(game.agents, game.coverage_fn)
        assert sampled == neighbor_sets(game)

    def test_masks_run_over_the_visible_cells(self):
        game = build_constellation_game(
            CONSTANTS, TABLE_SPEC, TABLE_TARGET, DAY_GRID, 0.2,
            StrategyInterval(-15 * DEG, 15 * DEG), 1.0,
        )
        cells = game.coverage_fn.cells
        assert game.n_cells == cells.size < DAY_GRID.n_steps
        assert np.all(np.diff(cells) > 0)
        assert game.coverage(1, 0.0).shape == (cells.size,)

    @settings(max_examples=100, deadline=None)
    @given(
        longitude=st.floats(-math.pi, math.pi),
        latitude=st.floats(-math.pi / 2.0, math.pi / 2.0),
        half_angle=st.floats(1.0 * DEG, math.pi),
        lo=st.floats(-math.pi, math.pi),
        width=st.floats(0.0, 2.0 * math.pi),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )
    def test_reach_bounds_masks_and_sampled_graph(
        self, longitude, latitude, half_angle, lo, width, fractions
    ):
        # Any target (view half-angles above 90 deg included) and strategy
        # interval: every mask of a strategy in the interval lies inside the
        # exact reach, so the sampled graph is a subgraph of the exact one.
        interval = StrategyInterval(lo, min(lo + width, math.pi))
        game = build_constellation_game(
            CONSTANTS, RING_SPEC, TargetSpec(longitude, latitude, half_angle),
            SCAN_GRID, 0.2, interval, 1.0,
        )
        cov = game.coverage_fn
        for k in game.active_indices:
            reach = reach_mask(cov, k)
            for f in [0.0, 1.0, *fractions]:
                theta = min(interval.lo + f * interval.width, interval.hi)
                assert not np.any(cov(k, theta) & ~reach)
        sampled = sampled_reach_graph(game.agents, cov)
        exact = neighbor_sets(game)
        for k, neigh in sampled.items():
            assert neigh <= exact[k]

    def test_local_value_ignores_far_satellites(self, rng):
        from oracles import local_value

        game = build_constellation_game(
            CONSTANTS, TABLE_SPEC, TABLE_TARGET, DAY_GRID, 0.2,
            StrategyInterval(-15 * DEG, 15 * DEG), 1.0,
        )
        profile = StrategyProfile(rng.uniform(-15 * DEG, 15 * DEG, 24))
        far = 13  # opposite side of the ring from satellite 1
        assert far not in game.neighbors(1)
        baseline = local_value(game, 1, profile)
        for theta in (-0.2, 0.0, 0.25):
            assert local_value(game, 1, profile.replace(far, theta)) == baseline

    def test_damaged_excluded_from_graph_and_union(self):
        game = build_constellation_game(
            CONSTANTS, TABLE_SPEC, TABLE_TARGET, DAY_GRID, 0.2,
            StrategyInterval(-15 * DEG, 15 * DEG), 1.0, damaged={10, 23},
        )
        graph = neighbor_sets(game)
        assert 10 not in graph
        assert all(10 not in neigh for neigh in graph.values())
        assert not game.agent(10).active

    def test_vector_theta_max_length_checked(self):
        with pytest.raises(ValueError, match="theta_max"):
            build_constellation_game(
                CONSTANTS, TABLE_SPEC, TABLE_TARGET, DAY_GRID, 0.2,
                StrategyInterval(-15 * DEG, 15 * DEG), (1.0, 2.0),
            )

    def test_damaged_indices_validated(self):
        with pytest.raises(ValueError, match="damaged"):
            build_constellation_game(
                CONSTANTS, TABLE_SPEC, TABLE_TARGET, DAY_GRID, 0.2,
                StrategyInterval(-15 * DEG, 15 * DEG), 1.0, damaged={99},
            )


# Strategy-interval ends at and near +-pi, where the 2 pi shifts of the
# covering intervals are live, or anywhere on the circle.
INTERVAL_ENDS = st.tuples(
    st.one_of(
        st.just(-math.pi),
        st.floats(-math.pi, -math.pi + 0.1),
        st.floats(-math.pi, math.pi),
    ),
    st.one_of(
        st.just(math.pi),
        st.floats(math.pi - 0.1, math.pi),
        st.floats(-math.pi, math.pi),
    ),
).map(sorted)


class TestExactBestResponse:
    """The breakpoint maximizer against dense probes and brute force."""

    @staticmethod
    def ring_game(longitude, latitude, half_angle, ends, gamma, positions):
        interval = StrategyInterval(*ends)
        game = build_constellation_game(
            CONSTANTS, RING_SPEC, TargetSpec(longitude, latitude, half_angle),
            SCAN_GRID, gamma, interval, 0.05,
        )
        theta = [interval.lo + p * interval.width for p in positions]
        return game, StrategyProfile(np.minimum(theta, interval.hi))

    @settings(max_examples=60, deadline=None)
    @given(
        longitude=st.floats(-math.pi, math.pi),
        latitude=st.floats(-math.pi / 2.0, math.pi / 2.0),
        half_angle=st.floats(1.0 * DEG, math.pi),
        ends=INTERVAL_ENDS,
        gamma=st.floats(0.0, 200.0),
        positions=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
        k=st.integers(1, 8),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=16),
    )
    def test_best_response_beats_every_dense_probe(
        self, longitude, latitude, half_angle, ends, gamma, positions, k, fractions
    ):
        game, profile = self.ring_game(
            longitude, latitude, half_angle, ends, gamma, positions
        )
        space = game.agent(k).strategy_space
        theta_star, gain = best_response_gain(game, k, CoverCount(game, profile))
        f, _ = best_response_objective(game, k, profile.theta[game.neighbor_positions[k]])
        best = f(theta_star)
        assert space.contains(theta_star, tol=0.0)
        assert gain == best - f(profile.for_agent(k)) >= 0.0
        probes = [*np.linspace(space.lo, space.hi, 401), 0.0]
        probes += [space.lo + x * space.width for x in fractions]
        for theta in probes:
            theta = min(max(theta, space.lo), space.hi)
            assert f(theta) <= best

    @settings(max_examples=25, deadline=None)
    @given(
        longitude=st.floats(-math.pi, math.pi),
        latitude=st.floats(-math.pi / 2.0, math.pi / 2.0),
        half_angle=st.floats(1.0 * DEG, math.pi),
        ends=INTERVAL_ENDS,
        gamma=st.floats(0.0, 200.0),
        positions=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
    )
    def test_certificate_matches_brute_force_over_all_breakpoints(
        self, longitude, latitude, half_angle, ends, gamma, positions
    ):
        game, profile = self.ring_game(
            longitude, latitude, half_angle, ends, gamma, positions
        )
        report = certify_epsilon_equilibrium(game, CoverCount(game, profile), 0.1)
        everywhere = np.ones(game.n_cells, dtype=bool)
        for k in game.active_indices:
            space = game.agent(k).strategy_space
            view = profile.theta[game.neighbor_positions[k]]
            f, _ = best_response_objective(game, k, view)
            # Every end of every row of the segment table with its 2 pi
            # shifts, unpruned, and the three points the pruned set is built
            # around.
            ends = game.coverage_fn.breakpoints(k, everywhere[game.reach_positions[k]])
            ends = np.concatenate(ends)
            candidates = [space.lo, space.hi, *ends, *(ends + 2 * math.pi)]
            candidates += list(ends - 2 * math.pi)
            if space.contains(0.0, tol=0.0):
                candidates.append(0.0)
            brute = max(f(t) for t in candidates if space.lo <= t <= space.hi)
            assert report.gains[k] == brute - f(profile.for_agent(k))
        assert report.worst_gain == max(report.gains.values())


# The seam: an interval ending at -pi keeps the rows shifted by 2 pi live.
SEAM_COVERAGE = ConstellationCoverage(
    CONSTANTS, TABLE_SPEC, TABLE_TARGET, SCAN_GRID, StrategyInterval(-math.pi, -math.pi + 0.1)
)


def coverage_game(cov, gamma, active=range(1, 25)):
    """A 24-satellite game on a shared coverage; those outside ``active`` are damaged."""
    agents = tuple(
        AgentSpec(index=k, strategy_space=cov.interval, theta_max=1.0, active=k in active)
        for k in range(1, 25)
    )
    return GameInstance(agents, cov.grid, cov, gamma)


def off_reach_moves(cov, game):
    """Moves ``(k, l, before, after)`` of a neighbor ``l`` of agent ``k`` off ``k``'s reach.

    ``l`` moves between the plateaus of two adjacent breakpoints of its
    own, and its masks at ``before`` and ``after`` differ, but not on any
    cell ``k`` can cover.
    """
    everywhere = np.ones(cov.cells.size, dtype=bool)
    for k in game.active_indices:
        reach = reach_mask(cov, k)
        for l in sorted(game.neighbors(k)):
            ends = np.unique(np.concatenate(cov.breakpoints(l, everywhere[cov.reach_positions(l)])))
            ends = ends[(ends > cov.interval.lo) & (ends < cov.interval.hi)]
            thetas = ((ends[1:] + ends[:-1]) / 2).tolist()
            for before, after in zip(thetas, thetas[1:]):
                was, now = cov(l, before), cov(l, after)
                if not np.array_equal(was, now) and np.array_equal(was[reach], now[reach]):
                    yield k, l, before, after


class TestBestResponseReuse:
    """A game reuses an agent's best response while its neighbors stand still."""

    @settings(max_examples=40, deadline=None)
    @given(
        wide=st.booleans(),
        gamma=st.floats(0.0, 200.0),
        active=st.sets(st.integers(1, 24), min_size=2, max_size=6),
        start=st.lists(st.floats(-math.pi, math.pi), min_size=24, max_size=24),
        moves=st.lists(
            st.tuples(st.integers(0, 5), st.one_of(st.none(), st.floats(-math.pi, math.pi))),
            max_size=8,
        ),
    )
    def test_reuse_cannot_be_seen(self, wide, gamma, active, start, moves):
        # After each unilateral move, to a random strategy or to the mover's
        # best response, every agent's answer on the long-lived game equals,
        # bit for bit, the one on a freshly built game; asking again with
        # the same neighbors scans nothing. A few active satellites make
        # every neighbor likely to move, and a neighbor that moves only off
        # an agent's reach makes that agent reuse on its uncovered cells. A
        # scan is a row selection, a call of breakpoints.
        cov = WIDE_COVERAGE if wide else TABLE_COVERAGE
        game = coverage_game(cov, gamma, active)
        movers = sorted(active)
        profile = StrategyProfile(np.array(start))
        with pytest.MonkeyPatch.context() as monkeypatch:
            scans = CallCounter(monkeypatch, ConstellationCoverage, "breakpoints")
            cover = CoverCount(game, profile)
            for i, theta in [(None, None), *moves]:
                if i is not None:
                    k = movers[i % len(movers)]
                    if theta is None:
                        theta, _ = best_response_gain(game, k, cover)
                    cover.adopt(game, {k: theta})
                    profile = profile.replace(k, theta)
                fresh = coverage_game(cov, gamma, active)
                fresh_cover = CoverCount(fresh, profile)
                for l in game.active_indices:
                    kept = best_response_gain(game, l, cover)
                    expected = best_response_gain(fresh, l, fresh_cover)
                    assert [v.hex() for v in kept] == [v.hex() for v in expected]
                    before = scans.calls
                    assert best_response_gain(game, l, cover) == kept
                    assert scans.calls == before
        assert sorted(cover._responses) == movers

    def test_each_scan_selects_the_rows_once(self, monkeypatch):
        # A first answer selects its rows once, in the scan that scores
        # every candidate, and counts once, for the incumbent alone.
        game = coverage_game(TABLE_COVERAGE, 20.0)
        selections = CallCounter(monkeypatch, ConstellationCoverage, "breakpoints")
        counts = CallCounter(monkeypatch, ConstellationCoverage, "masked_cell_counts")
        profile = StrategyProfile(np.linspace(-1.0, 1.0, 24))
        cover = CoverCount(game, profile)
        for n, k in enumerate(game.active_indices, start=1):
            best_response_gain(game, k, cover)
            assert (selections.calls, counts.calls) == (n, n)

    def test_neighbor_move_off_the_reach_scans_nothing(self, monkeypatch):
        # A neighbor l moves between two strategies whose masks differ only
        # on cells agent k can never cover. k's answer is marked stale, but
        # its uncovered cells did not change, so k keeps its answer
        # without selecting rows or reading a whole-grid array, and that
        # answer is, bit for bit, the one a freshly built game computes.
        # On a narrow interval, a reach is a small part of the cells.
        cov = SEAM_COVERAGE
        game = coverage_game(cov, 20.0)
        k, l, before, after = next(off_reach_moves(cov, game))
        profile = StrategyProfile(np.full(24, cov.interval.lo)).replace(l, before)
        cover = CoverCount(game, profile)
        view = profile.theta[game.neighbor_positions[k]]
        best_response_gain(game, k, cover)
        cover.adopt(game, {l: after})
        profile = profile.replace(l, after)
        assert not np.array_equal(profile.theta[game.neighbor_positions[k]], view)
        selections = CallCounter(monkeypatch, ConstellationCoverage, "breakpoints")
        selected = WholeCountCompares(monkeypatch)
        selected.watch(cover)
        kept = best_response_gain(game, k, cover)
        assert (selections.calls, selected.calls) == (0, 0)
        fresh = coverage_game(cov, 20.0)
        expected = best_response_gain(fresh, k, CoverCount(fresh, profile))
        assert [v.hex() for v in kept] == [v.hex() for v in expected]
        assert selections.calls == 1

    def test_neighbor_that_moves_away_and_back_scans_nothing(self, monkeypatch):
        # A neighbor l of agent k moves to a strategy that changes k's
        # uncovered cells, and back, in two adoptions. k's answer is marked
        # stale, but its uncovered cells are those it answered, so k keeps
        # its answer without selecting rows or reading a whole-grid array,
        # and that answer is, bit for bit, the one a freshly built game
        # computes.
        cov = TABLE_COVERAGE
        game = coverage_game(cov, 20.0)
        profile = StrategyProfile(np.linspace(-1.0, 1.0, 24))
        k = game.active_indices[0]
        l = int(game.neighbor_positions[k][0]) + 1
        before = profile.for_agent(l)
        own = game.coverage(k, profile.for_agent(k))

        def uncovered(theta):
            moved = CoverCount(game, profile.replace(l, theta))
            return alone(moved, own)[game.reach_positions[k]]

        away = next(
            t for t in np.linspace(cov.interval.lo, cov.interval.hi, 64).tolist()
            if not np.array_equal(uncovered(t), uncovered(before))
        )
        cover = CoverCount(game, profile)
        best_response_gain(game, k, cover)
        cover.adopt(game, {l: away})
        cover.adopt(game, {l: before})
        assert cover._stale[k - 1]
        selections = CallCounter(monkeypatch, ConstellationCoverage, "breakpoints")
        selected = WholeCountCompares(monkeypatch)
        selected.watch(cover)
        kept = best_response_gain(game, k, cover)
        assert (selections.calls, selected.calls) == (0, 0)
        assert not cover._stale[k - 1]
        fresh = coverage_game(cov, 20.0)
        expected = best_response_gain(fresh, k, CoverCount(fresh, profile))
        assert [v.hex() for v in kept] == [v.hex() for v in expected]

    @pytest.mark.parametrize(
        "cov", [TABLE_COVERAGE, WIDE_COVERAGE, SEAM_COVERAGE], ids=["table", "wide", "seam"]
    )
    def test_breakpoints_come_ascending(self, cov, rng):
        for k in range(1, 25):
            for within in (
                np.ones(cov.cells.size, dtype=bool),
                rng.random(cov.cells.size) < 0.5,
            ):
                for ends in cov.breakpoints(k, within[cov.reach_positions(k)]):
                    assert np.all(ends[1:] >= ends[:-1])


MINI_COVERAGES = {"table": TABLE_COVERAGE, "wide": WIDE_COVERAGE, "seam": SEAM_COVERAGE}


def fold_best_response(game, k, view, own):
    """Reference best response that folds the neighbor masks, as the paper defines it.

    Scores, one mask at a time, the candidates that ``best_response_gain``
    documents, drawn from the breakpoints of the cells outside the fold.
    """
    f, uncovered = best_response_objective(game, k, view)
    space = game.agent(k).strategy_space
    starts, stops = game.coverage_fn.breakpoints(k, uncovered[game.reach_positions[k]])
    z = min(max(0.0, space.lo), space.hi)
    candidates = [*stops[(stops >= space.lo) & (stops < z)], z]
    candidates += list(starts[(starts > z) & (starts <= space.hi)])
    values = [f(t) for t in candidates]
    best = max(values)
    return candidates[values.index(best)], best - f(own)


@st.composite
def mini_games(draw, max_active=24):
    """A game on a mini coverage with random damage, strategies and penalty scale."""
    cov = MINI_COVERAGES[draw(st.sampled_from(sorted(MINI_COVERAGES)))]
    active = draw(st.sets(st.integers(1, 24), min_size=1, max_size=max_active))
    gamma = draw(st.floats(0.0, 200.0))
    game = coverage_game(cov, gamma, active)
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=24, max_size=24))
    interval = cov.interval
    theta = np.minimum([interval.lo + x * interval.width for x in fractions], interval.hi)
    theta[[k - 1 for k in range(1, 25) if k not in active]] = 0.0
    return game, StrategyProfile(theta)


class TestRowMaskBreakpoints:
    """``breakpoints`` selects table rows by a mask over the agent's reach."""

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(MINI_COVERAGES)),
        k=st.integers(1, 24),
        density=st.sampled_from([0.0, 0.01, 0.5, 0.99, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_selects_the_rows_of_the_marked_cells(self, name, k, density, seed):
        # The reference selection: the lo and the hi ends of every table row
        # whose cell the cell mask holds, each sorted.
        cov = MINI_COVERAGES[name]
        within = np.random.default_rng(seed).random(cov.cells.size) < density
        table = cov._reach[k - 1]
        rows = within[table.cell]
        ends = cov.breakpoints(k, within[cov.reach_positions(k)])
        for got, expected in zip(ends, (np.sort(table.lo[rows]), np.sort(table.hi[rows]))):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def two_search_scan(cov, k, within, lo, z, hi):
    """Reference for ``scan``: the same candidates, each searched in both ends.

    The rows are those of ``breakpoints``; the candidates are its stops in
    ``[lo, z)``, then ``z``, then its starts in ``(z, hi]``; and each is
    counted by ``masked_cell_counts``, two binary searches per candidate,
    which is exact for every one of them.
    """
    starts, stops = ends = cov.breakpoints(k, within)
    first, last = stops.searchsorted((lo, z))
    start, end = starts.searchsorted((z, hi), "right")
    candidates = np.concatenate((stops[first:last], [z], starts[start:end]))
    return candidates, cov.masked_cell_counts(k, candidates, ends), ends


def first_maximum(candidates, counts, dt, gamma, theta_max):
    """``(theta_star, best)``: the best-response objective's first maximum."""
    agent = AgentSpec(1, FULL_CIRCLE, theta_max)
    return maximize_scalar(
        lambda thetas: dt * counts - gamma * energy_penalty(agent, thetas), candidates
    )


def exact_entries(candidates, z):
    """Where ``scan`` must count exactly, as a mask over ``candidates``.

    That is at ``z``, at the first stop and at the last start of every run
    of equal ends.
    """
    below, above = candidates[candidates < z], candidates[candidates > z]
    return np.concatenate(
        (below != np.r_[math.nan, below[:-1]], [True], above != np.r_[above[1:], math.nan])
    )


def handmade_coverage(rows):
    """A full-circle coverage whose satellite 1 holds the segment ``rows``.

    ``rows`` is a list of ``(lo, hi)`` pairs with ``lo <= hi``, each its own
    cell, sorted as a built table is: by ``lo``, with the ``hi`` ends sorted
    apart and mapped back to their rows.
    """
    lo, hi = np.array(rows, dtype=float).reshape(-1, 2).T
    by_lo = np.argsort(lo, kind="stable")
    lo, hi = lo[by_lo], hi[by_lo]
    stop_row = np.argsort(hi, kind="stable")
    cov = copy.copy(TABLE_COVERAGE)
    cov._reach = [_Reach(by_lo, lo, hi, stop_row, hi[stop_row])]
    return cov


@functools.cache
def bundled_coverage(duration_s, step_s):
    """The bundled scenario's coverage over ``duration_s`` at ``step_s``."""
    doc = json.loads(bundled_scenario_path().read_text())
    doc["grid"] = {"duration_s": duration_s, "step_s": step_s}
    return parse_scenario(doc).build_game().coverage_fn


# A grid of segment ends with many repeats, some at +-inf.
HANDMADE_ENDS = st.sampled_from([-math.inf, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, math.inf])


class TestScan:
    """``scan`` against the two-search reference: the same maximum, bit for bit."""

    def check(self, cov, k, within, lo, z, hi, gamma, theta_max):
        candidates, counts, ends = cov.scan(k, within, lo, z, hi)
        expected, exact, expected_ends = two_search_scan(cov, k, within, lo, z, hi)
        assert candidates.tobytes() == expected.tobytes()
        for got, end in zip(ends, expected_ends, strict=True):
            assert got.tobytes() == end.tobytes()
        at = exact_entries(candidates, z)
        assert np.array_equal(counts[at], exact[at])
        assert np.all(counts <= exact)
        dt = cov.grid.dt
        got = first_maximum(candidates, counts, dt, gamma, theta_max)
        reference = first_maximum(expected, exact, dt, gamma, theta_max)
        assert [v.hex() for v in got] == [v.hex() for v in reference]

    @settings(max_examples=60, deadline=None)
    @given(
        week=st.booleans(),
        k=st.sampled_from([1, 2, 9, 11, 12, 24]),
        density=st.sampled_from([0.0, 0.01, 0.5, 0.99, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        bounds=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).map(sorted),
        nearest_zero=st.booleans(),
        gamma=st.floats(0.0, 200.0),
        theta_max=st.floats(0.01, 10.0),
    )
    def test_bundled_tables(self, week, k, density, seed, bounds, nearest_zero, gamma, theta_max):
        # The bundled day at 5 s (about 260 rows a table) and the bundled
        # week at 1 s (about 9.5k), under random row masks, over sub-spans
        # of the interval; z is either the point nearest 0, as a best
        # response takes it, or anywhere between lo and hi.
        cov = bundled_coverage(604800.0, 1.0) if week else bundled_coverage(86400.0, 5.0)
        within = np.random.default_rng(seed).random(cov.reach_positions(k).size) < density
        interval = cov.interval
        lo, z, hi = (interval.lo + f * interval.width for f in bounds)
        hi = min(hi, interval.hi)
        z = min(z, hi)
        if nearest_zero:
            z = min(max(0.0, lo), hi)
        self.check(cov, k, within, lo, z, hi, gamma, theta_max)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(HANDMADE_ENDS, HANDMADE_ENDS)
            .filter(lambda r: r != (-math.inf, -math.inf) and r != (math.inf, math.inf))
            .map(sorted),
            max_size=24,
        ),
        seed=st.integers(0, 2**32 - 1),
        bounds=st.tuples(
            st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.25]),
            st.sampled_from([0.0, 0.5, 1.0]),
        ),
        gamma=st.sampled_from([0.0, 1e-3, 1.0, 200.0]),
    )
    def test_handmade_runs_of_equal_ends(self, rows, seed, bounds, gamma):
        # Ends from a small grid repeat often, at the maximum too, and rows
        # that reach +-inf start below or stop above every candidate.
        cov = handmade_coverage(rows)
        within = np.random.default_rng(seed).random(len(rows)) < 0.8
        lo, hi = bounds
        z = min(max(0.0, lo), hi)
        self.check(cov, 1, within, lo, z, hi, gamma, 1.0)

    def test_runs_at_the_maximum(self):
        # Two equal stops below 0 and three equal starts above it, the
        # starts the maximum, and a row visible at every strategy: the first
        # stop counts 3 cells and its copy fewer, the last start counts 4
        # and its copies fewer.
        rows = [(-1.0, -0.5)] * 2 + [(-math.inf, math.inf)] + [(0.5, 1.0)] * 3
        cov = handmade_coverage(rows)
        within = np.ones(len(rows), dtype=bool)
        candidates, counts, _ = cov.scan(1, within, -1.0, 0.0, 1.0)
        assert candidates.tolist() == [-0.5, -0.5, 0.0, 0.5, 0.5, 0.5]
        assert counts.tolist() == [3, 2, 1, 2, 3, 4]
        theta_star, best = first_maximum(candidates, counts, cov.grid.dt, 1.0, 1.0)
        assert theta_star == 0.5 and best == 4 * cov.grid.dt - 0.25
        self.check(cov, 1, within, -1.0, 0.0, 1.0, 1.0, 1.0)

    def test_bounds_outside_the_interval_raise(self):
        cov = day_coverage(interval=StrategyInterval(-0.2, 0.2))
        within = np.ones(cov.reach_positions(3).size, dtype=bool)
        for lo, hi in ((-0.3, 0.2), (-0.2, 0.3), (math.nan, 0.2)):
            with pytest.raises(ValueError, match="agent 3"):
                cov.scan(3, within, lo, min(max(0.0, lo), hi), hi)


@st.composite
def mini_strategies(draw):
    """A mini coverage, a satellite and a strategy its coverage accepts.

    The strategy is drawn from the finite segment ends of the satellite's
    table inside the accepted interval, from the interval's ends and those
    ends widened by ``CONTAINS_TOL``, or from anywhere in between.
    """
    name = draw(st.sampled_from(sorted(MINI_COVERAGES)))
    cov = MINI_COVERAGES[name]
    k = draw(st.integers(1, 24))
    interval = cov.interval
    a, b = interval.lo - CONTAINS_TOL, interval.hi + CONTAINS_TOL
    table = cov._reach[k - 1]
    ends = np.concatenate((table.lo, table.hi))
    ends = ends[(ends >= a) & (ends <= b)]
    edges = [a, interval.lo, interval.hi, b]
    theta = draw(
        st.one_of(
            st.sampled_from([*ends.tolist(), *edges]),
            st.floats(a, b, allow_nan=False),
        )
    )
    return name, cov, k, theta


class TestCoveredPositions:
    """``covered_positions`` lists each covered cell of the mask once."""

    @settings(max_examples=150, deadline=None)
    @given(case=mini_strategies())
    def test_positions_are_the_true_entries_of_the_mask(self, case):
        name, cov, k, theta = case
        positions = cov.covered_positions(k, theta)
        assert positions.dtype == np.intp
        assert np.unique(positions).size == positions.size
        mask = cov(k, theta)
        assert np.array_equal(np.sort(positions), np.flatnonzero(mask))
        # Every row compared on both ends, as a mask was formed before.
        table = cov._reach[k - 1]
        held = table.cell[(table.lo <= theta) & (theta <= table.hi)]
        assert np.array_equal(np.sort(positions), np.unique(held))
        # A game scatters the same mask from the positions, and freezes it.
        scattered = coverage_game(cov, 0.0).coverage(k, theta)
        assert (scattered.dtype, scattered.shape) == (mask.dtype, mask.shape)
        assert scattered.tobytes() == mask.tobytes()
        assert not scattered.flags.writeable

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(sorted(MINI_COVERAGES)), k=st.integers(1, 24))
    def test_outside_strategy_and_damaged_satellite_raise(self, name, k):
        cov = MINI_COVERAGES[name]
        interval = cov.interval
        for theta in (
            np.nextafter(interval.lo - CONTAINS_TOL, -math.inf),
            np.nextafter(interval.hi + CONTAINS_TOL, math.inf),
            math.nan,
        ):
            with pytest.raises(ValueError, match="outside the interval"):
                cov.covered_positions(k, float(theta))
        damaged = ConstellationCoverage(
            cov.constants, cov.spec, cov.target, cov.grid, interval, {k}
        )
        with pytest.raises(ValueError, match=f"satellite {k} is damaged"):
            damaged.covered_positions(k, 0.5 * (interval.lo + interval.hi))


class TestCoverCount:
    """The live cover count against the neighbor fold and a fresh rebuild."""

    @settings(max_examples=40, deadline=None)
    @given(case=mini_games())
    def test_selection_equals_the_neighbor_fold(self, case):
        game, profile = case
        cover = CoverCount(game, profile)
        for k in game.active_indices:
            view = profile.theta[game.neighbor_positions[k]]
            own = profile.for_agent(k)
            _, folded = best_response_objective(game, k, view)
            counted = alone(cover, game.coverage(k, own))
            for mine, reference in zip(
                game.coverage_fn.breakpoints(k, counted[game.reach_positions[k]]),
                game.coverage_fn.breakpoints(k, folded[game.reach_positions[k]]),
            ):
                assert np.array_equal(mine, reference)
            kept = best_response_gain(game, k, cover)
            expected = fold_best_response(game, k, view, own)
            assert [v.hex() for v in kept] == [float(v).hex() for v in expected]

    @settings(max_examples=30, deadline=None)
    @given(case=mini_games())
    def test_asked_again_at_its_maximizer_the_gain_is_zero(self, case):
        # An agent that moved to its best response, asked again while its
        # neighbors stand still, gets the same answer and exactly the fold's
        # gain of 0.0, without counting a cell.
        game, profile = case
        for k in game.active_indices:
            view = profile.theta[game.neighbor_positions[k]]
            cover = CoverCount(game, profile)
            theta_star, _ = best_response_gain(game, k, cover)
            cover.adopt(game, {k: theta_star})
            with pytest.MonkeyPatch.context() as monkeypatch:
                counts = CallCounter(monkeypatch, ConstellationCoverage, "masked_cell_counts")
                again = best_response_gain(game, k, cover)
            assert counts.calls == 0
            expected = fold_best_response(game, k, view, theta_star)
            assert [v.hex() for v in again] == [float(v).hex() for v in expected]
            assert [v.hex() for v in again] == [theta_star.hex(), (0.0).hex()]

    def test_asked_again_off_its_maximizer_the_gain_is_counted_once(self, monkeypatch):
        # An agent whose incumbent is not its maximizer counts the
        # incumbent once. Asked again while its neighbors stand still, and
        # again after a neighbor moves only off its reach, it gets exactly
        # the fold's gain both times, with no further count and no scan.
        cov = SEAM_COVERAGE
        game = coverage_game(cov, 20.0)
        k, l, before, after = next(off_reach_moves(cov, game))
        profile = StrategyProfile(np.full(24, cov.interval.lo)).replace(l, before)
        cover = CoverCount(game, profile)
        own = profile.for_agent(k)
        first = best_response_gain(game, k, cover)
        assert first[0] != own and first[1] > 0.0
        counts = CallCounter(monkeypatch, ConstellationCoverage, "masked_cell_counts")
        selections = CallCounter(monkeypatch, ConstellationCoverage, "breakpoints")
        for move in (None, after):
            if move is not None:
                cover.adopt(game, {l: move})
                profile = profile.replace(l, move)
            expected = fold_best_response(game, k, profile.theta[game.neighbor_positions[k]], own)
            calls = (counts.calls, selections.calls)
            again = best_response_gain(game, k, cover)
            assert (counts.calls, selections.calls) == calls
            assert [v.hex() for v in again] == [float(v).hex() for v in expected]

    @settings(max_examples=20, deadline=None)
    @given(
        case=mini_games(max_active=8),
        moves=st.lists(st.tuples(st.integers(0, 23), st.floats(0.0, 1.0)), max_size=6),
    )
    def test_best_responses_compare_no_whole_count(self, case, moves):
        # A comparison against the whole count reads all n_cells entries of
        # it. A best response reads the count at the agent's reach alone,
        # whether it scans, reuses under either key or stands at its
        # maximizer.
        # One cover count follows every move, so its answers are reused
        # as they would be in a run.
        game, profile = case
        interval = game.coverage_fn.interval
        with pytest.MonkeyPatch.context() as monkeypatch:
            whole = WholeCountCompares(monkeypatch)
            cover = CoverCount(game, profile)
            for i, x in [(None, None), *moves]:
                if i is not None and i + 1 in game.neighbor_positions:
                    theta = min(interval.lo + x * interval.width, interval.hi)
                    cover.adopt(game, {i + 1: theta})
                for k in game.active_indices:
                    theta_star, _ = best_response_gain(game, k, cover)
                    cover.adopt(game, {k: theta_star})
                    best_response_gain(game, k, cover)
        assert whole.calls == 0

    @settings(max_examples=30, deadline=None)
    @given(
        case=mini_games(max_active=8),
        steps=st.lists(
            st.tuples(
                st.permutations(range(24)),
                st.lists(st.one_of(st.none(), st.floats(0.0, 1.0)), min_size=24, max_size=24),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_count_follows_non_adjacent_adoptions(self, case, steps):
        # Each step moves a maximal set of pairwise non-neighbors, chosen in
        # a random order, to a random strategy or to its best response.
        game, profile = case
        cover = CoverCount(game, profile)
        interval = game.coverage_fn.interval
        for order, targets in steps:
            movers: dict[int, float] = {}
            for i in order:
                k = i + 1
                if k not in game.neighbor_positions or game.neighbors(k) & movers.keys():
                    continue
                if targets[i] is None:
                    new, _ = best_response_gain(game, k, cover)
                else:
                    new = min(interval.lo + targets[i] * interval.width, interval.hi)
                movers[k] = new
            cover.adopt(game, movers)
            for k, new in movers.items():
                profile = profile.replace(k, new)
            assert cover.theta.tolist() == profile.theta.tolist()
            rebuilt = CoverCount(game, profile)
            assert cover.counts.dtype == rebuilt.counts.dtype
            assert np.array_equal(cover.counts, rebuilt.counts)
            assert cover.positions.keys() == rebuilt.positions.keys()
            for k, positions in cover.positions.items():
                assert np.array_equal(positions, rebuilt.positions[k])
                assert not positions.flags.writeable
            assert cover.covered == rebuilt.covered
            phi = covered_value(game, cover.covered, profile.theta.tolist())
            assert phi.hex() == global_value(game, profile).hex()

    @settings(max_examples=20, deadline=None)
    @given(case=mini_games(), rounds=st.integers(1, 4))
    def test_round_phi_reads_the_live_count(self, case, rounds):
        game, profile = case
        zetas = dict.fromkeys(game.active_indices, True)
        cover = CoverCount(game, profile)
        for p in range(1, rounds + 1):
            trace = run_round(game, zetas, cover, SearchConfig(1e-3, rounds), p)
            zetas = trace.zetas
            profile = StrategyProfile(cover.theta)
            rebuilt = CoverCount(game, profile)
            assert np.array_equal(cover.counts, rebuilt.counts)
            assert trace.phi.hex() == global_value(game, profile).hex()

    @settings(max_examples=30, deadline=None)
    @given(case=mini_games(), cell=st.integers(0, 10**6), gates=st.booleans())
    def test_round_raises_on_a_corrupted_cell(self, case, cell, gates):
        # A cell nobody covers that counts one agent is caught whatever the
        # round adopts. A covered cell that counts none is caught in a round
        # that adopts nothing; a mover could carry it off in an open one.
        game, profile = case
        cover = CoverCount(game, profile)
        cell %= game.n_cells
        if cover.counts[cell]:
            cover.counts[cell] = 0
            gates = False
        else:
            cover.counts[cell] = 1
        zetas = dict.fromkeys(game.active_indices, gates)
        with pytest.raises(RuntimeError, match="cover count"):
            run_round(game, zetas, cover, SearchConfig(1e-3, 1))
