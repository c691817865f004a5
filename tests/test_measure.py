"""Coverage masks on a grid: definitions, exact measure identities, error handling."""
import numpy as np
import pytest

from covgame.game import AgentSpec, GameInstance, StrategyInterval
from covgame.measure import TimeGrid, union_many

from conftest import as_generator
from oracles import cell_starts


def make(bits):
    return np.array([b == "1" for b in bits])


def measure(grid, mask):
    return grid.dt * int(np.count_nonzero(mask))


class TestTimeGrid:
    def test_cell_count_and_duration(self):
        grid = TimeGrid(0.0, 86400.0, 5.0)
        assert grid.n_steps == 17280
        assert grid.duration == 86400.0

    def test_cell_starts_are_left_edges(self):
        grid = TimeGrid(10.0, 30.0, 5.0)
        assert cell_starts(grid).tolist() == [10.0, 15.0, 20.0, 25.0]

    @pytest.mark.parametrize(
        "t0,tf,dt", [(0.0, 10.0, 0.0), (0.0, 10.0, -1.0), (5.0, 5.0, 1.0), (5.0, 4.0, 1.0)]
    )
    def test_invalid_grids_rejected(self, t0, tf, dt):
        with pytest.raises(ValueError):
            TimeGrid(t0, tf, dt)

    def test_step_must_divide_the_horizon(self):
        # 12000 / 7 would round to 1714 cells and silently end at 11998 s.
        with pytest.raises(ValueError, match="divide"):
            TimeGrid(0.0, 12000.0, 7.0)
        assert TimeGrid(0.0, 0.3, 0.1).n_steps == 3


class TestSetOps:
    grid = TimeGrid(0.0, 4.0, 1.0)

    def test_union_bitwise(self):
        u = union_many([make("1100"), make("0110")], self.grid.n_steps)
        assert u.tolist() == [True, True, True, False]
        assert measure(self.grid, u) == 3.0

    def test_union_with_empty_is_identity(self):
        a = make("1010")
        empty = np.zeros(self.grid.n_steps, dtype=bool)
        assert union_many([a, empty], self.grid.n_steps).tolist() == a.tolist()

    def test_disjoint_windows_measures_add(self):
        grid = TimeGrid(0.0, 40.0, 5.0)
        starts = cell_starts(grid)
        first = (starts >= 0.0) & (starts < 10.0)
        second = (starts >= 20.0) & (starts < 30.0)
        assert measure(grid, union_many([first, second], grid.n_steps)) == 20.0

    def test_grid_mismatch_is_hard_error(self):
        with pytest.raises(ValueError):
            union_many([make("1100"), make("11001100")], self.grid.n_steps)

    def test_masks_are_immutable(self):
        # A mask from game.coverage is the cached value itself: read-only.
        def coverage(k, theta):
            return make("1100")

        as_generator(coverage, self.grid)
        agents = (AgentSpec(1, StrategyInterval(-1.0, 1.0), 1.0),)
        game = GameInstance(agents, self.grid, coverage, 0.1)
        mask = game.coverage(1, 0.0)
        assert mask is game.coverage(1, 0.0)
        with pytest.raises(ValueError):
            mask[0] = False


class TestUnionMany:
    grid = TimeGrid(0.0, 8.0, 1.0)

    def test_single_set_is_identity(self):
        s = make("10110100")
        assert union_many([s], self.grid.n_steps).tolist() == s.tolist()

    def test_empty_list_needs_grid(self):
        empty = union_many([], self.grid.n_steps)
        assert empty.shape == (self.grid.n_steps,) and not empty.any()

    def test_fold_associativity(self):
        a, b, c = (make(bits) for bits in ("10000001", "01100000", "00100110"))
        assert union_many([a, b, c], self.grid.n_steps).tolist() == (a | b | c).tolist()


class TestMeasureIdentities:
    """Exact identities on random masks: popcounts times dt cannot round."""

    grid = TimeGrid(0.0, 128.0, 0.5)

    def random_set(self, rng):
        return rng.random(self.grid.n_steps) < 0.4

    def union_measure(self, *masks):
        return measure(self.grid, union_many(masks, self.grid.n_steps))

    def test_inclusion_exclusion_pairwise(self, rng):
        for _ in range(200):
            a, b = self.random_set(rng), self.random_set(rng)
            assert self.union_measure(a, b) + measure(self.grid, a & b) == (
                measure(self.grid, a) + measure(self.grid, b)
            )

    def test_inclusion_exclusion_three_sets(self, rng):
        # Union measure expanded over all eight overlap regions, brute force.
        for _ in range(50):
            a, b, c = (self.random_set(rng) for _ in range(3))
            expected = (
                measure(self.grid, a)
                + measure(self.grid, b)
                + measure(self.grid, c)
                - measure(self.grid, a & b)
                - measure(self.grid, a & c)
                - measure(self.grid, b & c)
                + measure(self.grid, a & b & c)
            )
            assert self.union_measure(a, b, c) == expected

    def test_monotonicity(self, rng):
        for _ in range(200):
            a = self.random_set(rng)
            assert measure(self.grid, a) <= self.union_measure(a, self.random_set(rng))

    def test_measure_bounds(self, rng):
        for _ in range(50):
            masks = [self.random_set(rng) for _ in range(int(rng.integers(0, 5)))]
            assert 0.0 <= self.union_measure(*masks) <= self.grid.duration
