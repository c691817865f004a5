"""Candidate maximizer and compass search: exactness on plateaus, determinism."""
import math

import numpy as np
import pytest

from covgame.optimize import PatternSearchConfig, maximize_scalar, pattern_search


class TestScalarMaximizer:
    def test_interior_quadratic_maximum(self):
        x, v = maximize_scalar(lambda ts: -ts * ts, np.linspace(-1.0, 1.0, 21))
        assert abs(x) < 1e-4
        assert v == pytest.approx(0.0, abs=1e-8)

    def test_endpoint_maximum_exact(self):
        x, v = maximize_scalar(lambda ts: ts, np.linspace(-1.0, 1.0, 5))
        assert x == 1.0 and v == 1.0

    def test_degenerate_interval(self):
        x, v = maximize_scalar(lambda ts: 7.0 - ts, np.array([2.0]))
        assert (x, v) == (2.0, 5.0)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="no candidates"):
            maximize_scalar(lambda ts: ts, np.array([]))

    def test_plateau_objective_matches_dense_oracle(self):
        # A right-continuous step function of theta attains each plateau's
        # height at the plateau's left end, so its breakpoints and the
        # interval's ends hold the maximum.
        def f(ts):
            return np.floor(ts * 3.0) % 5

        breakpoints = np.arange(-6, 7) / 3.0
        _, v = maximize_scalar(f, breakpoints)
        dense = f(np.linspace(-2.0, 2.0, 601)).max()
        assert v == dense

    def test_never_below_best_coarse_sample(self, rng):
        for _ in range(50):
            knots = np.sort(rng.uniform(-1.0, 1.0, 8))
            heights = rng.uniform(0.0, 10.0, 9)

            def f(ts):
                return heights[np.searchsorted(knots, ts)]

            xs = np.linspace(-1.0, 1.0, 31)
            coarse_best = f(xs).max()
            _, v = maximize_scalar(f, xs)
            assert v >= coarse_best

    def test_first_of_tied_candidates_wins(self):
        x, v = maximize_scalar(
            lambda ts: (np.abs(ts) <= 0.5).astype(float), np.linspace(-1.0, 1.0, 9)
        )
        assert (x, v) == (-0.5, 1.0)

    def test_deterministic(self):
        def f(ts):
            return np.sin(3.0 * ts) - 0.1 * ts * ts

        xs = np.linspace(-2.0, 2.0, 101)
        assert maximize_scalar(f, xs) == maximize_scalar(f, xs)

    def test_non_finite_probe_reported(self):
        def f(ts):
            return np.where(ts > 0.5, np.nan, 0.0)

        with pytest.raises(ValueError, match="non-finite"):
            maximize_scalar(f, np.linspace(0.0, 1.0, 3))

    def test_wrong_shaped_objective_rejected(self):
        with pytest.raises(ValueError, match="wrong-shaped"):
            maximize_scalar(lambda ts: ts[:-1], np.linspace(0.0, 1.0, 3))


class TestPatternSearch:
    box3 = [(-2.0, 2.0)] * 3

    def test_quadratic_bowl(self):
        cfg = PatternSearchConfig(initial_step=0.5, min_step=1e-5, max_evals=10000)
        x, v, _ = pattern_search(lambda p: -float(p @ p), self.box3, [1.5, -1.0, 0.7], cfg)
        assert np.linalg.norm(x) <= 1e-5 * math.sqrt(3) * 10
        assert v == pytest.approx(0.0, abs=1e-8)

    def test_separable_recovers_each_center(self):
        centers = np.array([0.4, -1.2, 0.9])
        cfg = PatternSearchConfig(initial_step=0.5, min_step=1e-6, max_evals=20000)
        x, _, _ = pattern_search(
            lambda p: -float(((p - centers) ** 2).sum()), self.box3, [0.0, 0.0, 0.0], cfg
        )
        assert np.allclose(x, centers, atol=1e-5)

    def test_one_dimension_agrees_with_scalar_maximizer(self):
        def f(t):
            return math.cos(t) + 0.2 * t

        xs, vs = maximize_scalar(np.vectorize(f), np.linspace(-2.0, 2.0, 40001))
        cfg = PatternSearchConfig(initial_step=0.5, min_step=1e-7, max_evals=50000)
        xp, vp, _ = pattern_search(lambda p: f(float(p[0])), [(-2.0, 2.0)], [0.0], cfg)
        assert abs(float(xp[0]) - xs) < 1e-4
        assert abs(vp - vs) < 1e-6

    def test_returns_the_best_point_it_ever_saw(self):
        history = []

        def f(p):
            v = math.sin(3.0 * p[0]) * math.cos(2.0 * p[1]) - 0.1 * float(p @ p)
            history.append(v)
            return v

        cfg = PatternSearchConfig(initial_step=0.5, min_step=1e-4, max_evals=3000)
        _, value, evals = pattern_search(f, self.box3[:2], [1.0, -1.0], cfg)
        assert evals == len(history)
        assert value == max(history)

    def test_result_stays_in_box(self):
        x, _, _ = pattern_search(
            lambda p: float(p.sum()), [(-1.0, 1.0), (0.0, 0.5)], [0.0, 0.0]
        )
        assert x.tolist() == [1.0, 0.5]

    def test_eval_budget_respected(self):
        cfg = PatternSearchConfig(initial_step=0.5, min_step=1e-12, max_evals=37)
        _, _, evals = pattern_search(lambda p: -float(p @ p), self.box3, [1.0, 1.0, 1.0], cfg)
        assert evals <= 37

    def test_start_outside_box_is_clamped(self):
        x, _, _ = pattern_search(lambda p: -float(p @ p), [(-1.0, 1.0)], [5.0])
        assert -1.0 <= float(x[0]) <= 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            pattern_search(lambda p: math.inf, self.box3, [0.0, 0.0, 0.0])

    def test_deterministic(self):
        def f(p):
            return -float(((p - 0.3) ** 2).sum())

        a = pattern_search(f, self.box3, [1.0, -1.0, 0.5])
        b = pattern_search(f, self.box3, [1.0, -1.0, 0.5])
        assert a[1] == b[1] and a[0].tolist() == b[0].tolist()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step_shrink": 0.0},
            {"step_shrink": 1.0},
            {"min_step": 0.0},
            {"max_evals": 0},
            {"initial_step": 1e-9, "min_step": 1e-3},
            {"step_expand": 0.5},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            PatternSearchConfig(**kwargs)
