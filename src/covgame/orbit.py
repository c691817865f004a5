"""Circular low-Earth-orbit constellation model with secular oblateness drift.

Satellites share one circular orbit; the dominant oblateness (J2) effect makes
the ascending node and each satellite's orbital phase drift linearly in time.
A satellite's strategy is a one-time phase offset added to its initial mean
anomaly. Ground-target visibility is a pure geocentric-angle threshold between
the satellite and target position vectors in the Earth-fixed frame, sampled at
the left edge of every grid cell, which makes each satellite's coverage a
union of short time windows. Masks run over the cells some phase can see,
not over the whole grid. The coverage is built for the game's strategy
interval, and each satellite stores one table of closed segments, a row per
cell and ``2 pi`` shift of its covering interval that meets the interval
(see :class:`ConstellationCoverage`). The build touches only the cells that
can matter: a strided visibility pre-pass bounds where the target can be
seen at all, and one phase row shared by every satellite bounds where each
satellite can have a row. The tables of satellites with short windows are
built a group at a time, one numpy pass over the group's windows, and only
each table's own two sorts and the gathers they order run per satellite;
the tables are those of a build over every cell, bit for bit. The geometry of the candidate cells is
released before the first table is built, so the build's memory peaks at
the tables it keeps, and a damaged satellite, which takes no part in the
game, gets no table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .game import CONTAINS_TOL, AgentSpec, GameInstance, StrategyInterval
from .measure import TimeGrid

TWO_PI = 2.0 * math.pi
# The 2 pi shifts of a covering interval that a segment table can hold.
_SHIFTS = np.array([-TWO_PI, 0.0, TWO_PI])
# Cells between two samples of the visibility pre-pass. The bound it rests
# on grows with the block, |node_rate + earth_rotation_rate| times half its
# length, so a larger stride samples less and keeps more.
_STRIDE = 64
# Slack of the visibility pre-pass (in units of amp) and of the phase
# window (radians) for the rounding of values near 1 and pi. The angles the
# build forms also round by a few ulps of their own size, which grows with
# the horizon (the drift of a low orbit passes 1e6 rad in about 30 years),
# so _slack adds eight ulps of the largest one.
_MARGIN = 1e-9
# The most phase-window entries that one numpy pass of the table build
# takes. Satellites whose windows together hold no more share a pass, so a
# table costs a few numpy calls rather than a few dozen; a longer window is
# a pass of its own.
_GROUP_ENTRIES = 8192


def _slack(scale: float) -> float:
    """Rounding slack for values formed from angles of up to ``scale`` rad."""
    return _MARGIN + 8.0 * float(np.spacing(scale))


@dataclass(frozen=True)
class OrbitConstants:
    """Physical constants; defaults are the standard WGS-84/EGM values."""

    mu: float = 398600.4418        # geocentric gravitational constant, km^3/s^2
    j2: float = 1.08262668e-3      # second zonal harmonic, dimensionless
    earth_radius: float = 6378.137  # equatorial radius, km
    earth_rotation_rate: float = 7.2921159e-5  # rad/s

    def __post_init__(self) -> None:
        for name in ("mu", "earth_radius", "earth_rotation_rate"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")
        if self.j2 < 0.0:
            raise ValueError("j2 must be non-negative")


@dataclass(frozen=True)
class ConstellationSpec:
    """Shared circular-orbit elements plus per-satellite initial phases.

    Angles in radians, lengths in km. The orbit is circular: the geocentric
    distance is the semi-major axis, and each phase is measured from the
    ascending node.
    """

    semi_major_axis: float
    inclination: float
    raan0: float                      # ascending-node angle at t0
    greenwich_angle0: float           # sidereal hour angle at t0
    mean_anomalies0: tuple[float, ...]  # initial phase of each satellite

    def __post_init__(self) -> None:
        if not self.mean_anomalies0:
            raise ValueError("constellation needs at least one satellite")

    @classmethod
    def equally_spaced(
        cls,
        n_satellites: int,
        semi_major_axis: float,
        inclination: float,
        raan0: float,
        greenwich_angle0: float,
    ) -> "ConstellationSpec":
        """Ring of ``n_satellites`` with phase ``2 pi (k-1) / n_satellites`` for satellite k."""
        if n_satellites < 1:
            raise ValueError("need at least one satellite")
        spacing = TWO_PI / n_satellites
        return cls(
            semi_major_axis=semi_major_axis,
            inclination=inclination,
            raan0=raan0,
            greenwich_angle0=greenwich_angle0,
            mean_anomalies0=tuple(k * spacing for k in range(n_satellites)),
        )

    @property
    def n_satellites(self) -> int:
        return len(self.mean_anomalies0)


@dataclass(frozen=True)
class TargetSpec:
    """Ground target on a spherical Earth plus the visibility half-angle.

    ``view_half_angle`` is the largest geocentric angle between satellite and
    target at which the target is observable. Values up to pi are accepted so
    degenerate always-visible setups stay expressible.
    """

    longitude: float
    latitude: float
    view_half_angle: float

    def __post_init__(self) -> None:
        if not (abs(self.latitude) <= math.pi / 2.0):
            raise ValueError("latitude must lie in [-pi/2, pi/2]")
        if not (0.0 < self.view_half_angle <= math.pi):
            raise ValueError("view_half_angle must lie in (0, pi]")


@dataclass(frozen=True)
class DriftRates:
    """Secular angular rates: node drift and phase rate, rad/s."""

    node_rate: float
    phase_rate: float


def drift_rates(constants: OrbitConstants, spec: ConstellationSpec) -> DriftRates:
    """Secular node and phase rates for the shared orbit.

    With mean motion ``n = sqrt(mu / a^3)`` and the oblateness coefficient
    ``c = 1.5 n j2 (Re/a)^2`` of a circular orbit, the node drifts at
    ``-c cos(i)`` and the phase advances at ``n - c (1.5 sin(i)^2 - 1)``.
    """
    a = spec.semi_major_axis
    n_m = math.sqrt(constants.mu / a**3)
    c_j2 = 1.5 * n_m * constants.j2 * (constants.earth_radius / a) ** 2
    node_rate = -c_j2 * math.cos(spec.inclination)
    phase_rate = n_m - c_j2 * (1.5 * math.sin(spec.inclination) ** 2 - 1.0)
    return DriftRates(node_rate=node_rate, phase_rate=phase_rate)


def mean_motion(constants: OrbitConstants, spec: ConstellationSpec) -> float:
    return math.sqrt(constants.mu / spec.semi_major_axis**3)


def orbital_period(constants: OrbitConstants, spec: ConstellationSpec) -> float:
    """Unperturbed orbital period, seconds."""
    return TWO_PI / mean_motion(constants, spec)


def target_position_ecf(constants: OrbitConstants, target: TargetSpec) -> np.ndarray:
    """Earth-fixed position (km) of the target on a spherical Earth."""
    clat = math.cos(target.latitude)
    return constants.earth_radius * np.array(
        [
            clat * math.cos(target.longitude),
            clat * math.sin(target.longitude),
            math.sin(target.latitude),
        ]
    )


def _elapsed(grid: TimeGrid, cells: np.ndarray) -> np.ndarray:
    """Seconds from ``grid.t0`` to the left edge of each of ``cells``.

    Element for element the left edge ``t0 + dt * j`` of cell ``j`` minus
    ``t0``, formed without a grid-length array.
    """
    return (grid.t0 + grid.dt * cells.astype(float)) - grid.t0


def _wrap_pi(x: np.ndarray) -> np.ndarray:
    """Wrap angles into (-pi, pi]."""
    return np.pi - np.mod(np.pi - x, TWO_PI)


class _Reach(NamedTuple):
    """One satellite's segment table over the offsets of the built interval.

    Row ``i`` says that the satellite covers mask position ``cell[i]`` for
    exactly the offsets in the closed segment ``[lo[i], hi[i]]``. The rows
    of one cell are disjoint, and every row has ``lo <= hi``. The rows are
    sorted by ``lo``; ``stop`` holds the same ``hi`` ends sorted ascending,
    and ``stop_row`` the row of each, so that ``stop == hi[stop_row]``. A
    mask over the rows thus selects both ends of the same rows.
    """

    cell: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    stop_row: np.ndarray
    stop: np.ndarray


class _PhaseRow(NamedTuple):
    """What every satellite's segment table is built from.

    ``always`` holds the cells visible for every phase. Entry ``i`` of
    ``half_width``, ``drift`` and ``psi`` is the arc of another visible
    cell, at mask position ``part[i]``, and ``by_u`` sorts their shared
    phase row. A satellite's window is ``length`` positions from ``first``
    of that sorted row repeated, and ``[a, b]`` is the built interval
    widened by ``CONTAINS_TOL``.

    A window of more than :data:`_GROUP_ENTRIES` entries is built alone
    (:meth:`window_table`); shorter ones are built a group at a time
    (:meth:`group_tables`), so that the elementwise work runs once per
    group. Either way each table gets its own two ``argsort`` calls, on the
    same values in the same order: the default sort does not keep the order
    of equal keys, so the rows reach it as a build over every cell passes
    them, the always-visible rows first, then the rows of the shifts
    -2 pi, 0 and +2 pi, each in ascending cell order.
    """

    always: np.ndarray
    part: np.ndarray
    half_width: np.ndarray
    drift: np.ndarray
    psi: np.ndarray
    by_u: np.ndarray
    a: float
    b: float

    def window_table(self, m0: float, first: int, length: int) -> _Reach:
        """The table of the satellite at phase ``m0``, built alone."""
        sub = self.by_u.take(np.arange(first, first + length), mode="wrap")
        sub.sort()
        index, shift, lo, hi = self._rows(sub, m0)
        return self._table(self.part[sub[index]], lo[index] + shift, hi[index] + shift)

    def group_tables(
        self, m0: np.ndarray, first: np.ndarray, length: np.ndarray
    ) -> list[_Reach]:
        """The tables of the satellites at phases ``m0``, from one pass over their windows.

        The windows are concatenated, each sorted to ascending cell order
        under a key that keeps it ahead of the next, and the elementwise
        work of :meth:`window_table` runs once over them all. A stable sort
        by window then puts the selected rows in each table's build order,
        one run per table.
        """
        ends = np.cumsum(length)
        window = np.repeat(np.arange(m0.size), length)
        key = window * self.by_u.size
        sub = self.by_u.take(
            np.arange(ends[-1]) + np.repeat(first - (ends - length), length), mode="wrap"
        )
        sub += key
        sub.sort()
        sub -= key
        index, shift, lo, hi = self._rows(sub, np.repeat(m0, length))
        window = window[index]
        order = window.argsort(kind="stable")
        index, shift = index[order], shift[order]
        cell, lo, hi = self.part[sub[index]], lo[index] + shift, hi[index] + shift
        cut = window[order].searchsorted(np.arange(m0.size + 1)).tolist()
        return [self._table(cell[s:e], lo[s:e], hi[s:e]) for s, e in zip(cut, cut[1:])]

    def _rows(
        self, sub: np.ndarray, m0: float | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The rows that the entries ``sub`` give at phases ``m0``.

        Returns ``(index, shift, lo, hi)``: the entries whose covering
        interval ``[lo, hi]`` meets ``[a, b]`` at each of :data:`_SHIFTS`,
        shift by shift and ascending within one, and each one's shift.
        """
        neg_base = -_wrap_pi(m0 + self.drift[sub] - self.psi[sub])
        lo = neg_base - self.half_width[sub]
        hi = neg_base + self.half_width[sub]
        index = [
            np.flatnonzero(hi - TWO_PI >= self.a),
            np.flatnonzero((lo <= self.b) & (hi >= self.a)),
            np.flatnonzero(lo + TWO_PI <= self.b),
        ]
        shift = np.repeat(_SHIFTS, [i.size for i in index])
        return np.concatenate(index), shift, lo, hi

    def _table(self, cell: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> _Reach:
        """A table from its rows after the always-visible ones, in build order."""
        # Only a view half-angle of 90 degrees or more sees a cell for
        # every phase.
        if self.always.size:
            cell = np.concatenate((self.always, cell))
            lo = np.concatenate((np.full(self.always.size, -math.inf), lo))
            hi = np.concatenate((np.full(self.always.size, math.inf), hi))
        by_lo = lo.argsort()
        hi = hi[by_lo]
        stop_row = hi.argsort()
        return _Reach(cell[by_lo], lo[by_lo], hi, stop_row, hi[stop_row])


class ConstellationCoverage:
    """Per-satellite target-visibility masks over the grid's visible cells.

    Visibility of satellite ``k`` at phase ``M`` reduces, after pulling the
    target direction back through the time-dependent frame rotations, to
    ``amp(t) * cos(M - psi(t)) >= cos(view_half_angle)``: at each time the
    visible phases form one arc, or none when the target is out of reach of
    the whole orbit. Only the cells with an arc can ever be covered, so every
    mask runs over those alone: ``cells`` holds their sorted grid indices,
    and entry ``i`` of a mask stands for grid cell ``cells[i]``. A measure is
    ``dt`` times a count either way.

    Re-expressed in the strategy variable, every visible cell is covered
    exactly for the offsets that are congruent modulo ``2 pi`` to a point
    of one closed covering interval. The coverage is built for one strategy
    ``interval``, which the game's agents share, and unrolls each covering
    interval at build time: each satellite keeps a table of plain closed
    segments ``(cell, lo, hi)``, one per ``2 pi`` shift that meets the
    interval widened by :data:`~covgame.game.CONTAINS_TOL`, so every offset
    that ``interval.contains`` accepts gets an exact coverage by direct
    comparison. An offset outside it raises ``ValueError``. The covered
    positions of one offset (:meth:`covered_positions`) cost one
    ``searchsorted`` over the ``lo`` ends and one comparison per row below
    it; a single mask, with one entry per visible cell, is scattered from
    them (:meth:`__call__`, which the game itself does not call). The
    segment ends are also what an exact best response scores
    (:meth:`scan`). Each table is sorted once at build time, its rows by
    ``lo`` and a copy of its ``hi`` ends with their rows, so the ends of any
    subset of rows, selected by ``compress`` (:meth:`breakpoints`), come
    out ascending. Counting a sorted array of strategies against them costs
    one ``searchsorted`` pass per side (:meth:`masked_cell_counts`) that
    reproduces the comparisons of :meth:`covered_positions` exactly: the
    two can never disagree on a boundary cell. A scan's candidates are
    themselves ends, whose place in their own array the slice that took
    them gives, so it searches each in the other array alone. The cells of
    a table, its :meth:`reach_positions` from
    which the game derives its neighbor graph, contain the covered positions
    of every strategy in the interval.

    The build works only on the cells that can matter, and stores exactly
    what a build over every cell would, row for row. First, a visibility
    pre-pass evaluates the geometry at every :data:`_STRIDE`-th cell and the
    last one: ``amp`` moves by at most ``|node_rate + earth_rotation_rate|``
    times the elapsed time, so a block between two samples can hold a visible
    cell only if one of its samples has ``amp >= cos(view_half_angle) -
    bound - slack``, with ``bound`` that rate times half the block. The
    exact geometry then runs on the kept blocks alone; a view half-angle of
    90 degrees or more keeps them all. Second, every satellite shares one
    orbit, so its covering intervals are those of one phase row ``u`` turned
    by its phase ``m0``. ``u`` is sorted once, and satellite ``m0`` is built
    from the cells whose ``u`` lies within half the interval plus the widest
    arc (plus a slack) of ``-m0`` minus the interval's middle, around the
    circle: the only cells that can give it a row. Third, the satellites
    are taken in index order in groups whose windows hold at most
    :data:`_GROUP_ENTRIES` entries together, and each group is one numpy
    pass: its windows are concatenated, and the gathers, the angle
    arithmetic and the selection of each shift's rows run once over them
    all. Per satellite there remain the two ``argsort`` calls of its table
    and the gathers they order, each sort on the values that a build over
    every cell passes it, in the same order, since the default sort does
    not keep the order of equal keys. A window longer than the budget is
    built alone. Only the visible cells' arcs, the
    sorted row and its order outlive the geometry of the pre-pass's
    candidates, so the build's memory peaks at the tables it keeps plus a
    few arrays of one entry per visible cell and one group's windows.

    The satellites in ``damaged`` (1-based) take no part in the game and
    get no table: :meth:`__call__`, :meth:`covered_positions`,
    :meth:`breakpoints`, :meth:`scan` and :meth:`reach_positions` raise
    ``ValueError`` naming such a satellite.
    The other tables are those of a build without damage.
    """

    def __init__(
        self,
        constants: OrbitConstants,
        spec: ConstellationSpec,
        target: TargetSpec,
        grid: TimeGrid,
        interval: StrategyInterval,
        damaged: frozenset[int] | set[int] = frozenset(),
    ) -> None:
        if interval.lo < -math.pi or interval.hi > math.pi:
            raise ValueError("strategy interval must lie within [-pi, pi]")
        n = spec.n_satellites
        bad = [k for k in damaged if not (1 <= k <= n)]
        if bad:
            raise ValueError(f"damaged indices {bad} outside 1..{n}")
        self.constants = constants
        self.spec = spec
        self.target = target
        self.grid = grid
        self.interval = interval
        self.rates = drift_rates(constants, spec)

        # Each step returns only what the next one reads, so no array over
        # the candidate cells outlives the cut to the visible ones, and the
        # tables below are not built on top of dead geometry.
        self.cells, half_width, psi, drift = self._visible_arcs(self._candidates())

        # A cell is covered iff the offset is congruent mod 2 pi to a point
        # of [lo, hi] = [-base - half_width, -base + half_width], with base
        # in [-pi, pi]. Every accepted offset lies in [a, b], within
        # CONTAINS_TOL of [-pi, pi], so only the shifts -2 pi, 0 and +2 pi
        # of [lo, hi] can hold one, and each shift that meets [a, b] is a
        # row. Since lo <= pi and hi >= -pi, the -2 pi copy always starts
        # below b and the +2 pi copy always ends above a, so each of them
        # needs only its other end tested. Rounding is monotone, so every
        # row keeps lo <= hi.
        # The rows of one cell are disjoint, so a count of the rows holding
        # an offset is a count of cells. A cell visible for every phase has
        # half_width exactly pi, and its shifts would share their ends, so
        # it gets the single row (-inf, inf). Any other half_width is at
        # most arccos's largest value below pi, about pi - 1.5e-8, which
        # keeps the shifts of one covering interval 3e-8 apart.
        a = interval.lo - CONTAINS_TOL
        b = interval.hi + CONTAINS_TOL
        full = half_width == math.pi
        always = np.flatnonzero(full)
        part = np.flatnonzero(~full)
        half_width, drift, psi = half_width[part], drift[part], psi[part]
        # The shared phase row: base is m0 + u modulo 2 pi, and a covering
        # interval meets [a, b] only if its middle -base lies within `radius`
        # of the middle of [a, b] around the circle. So satellite m0 needs
        # only the cells with u within `radius` of -m0 - middle. The sorted
        # u, shifted to three turns, hold each such window as one run of
        # positions; position p stands for entry p modulo u.size of the
        # sorted order by_u, and the arithmetic of _PhaseRow runs on each
        # window's entries in ascending cell order, giving the same rows in
        # the same order. Any u.size consecutive positions hold each cell
        # once, so a window of 2 pi or more, clamped to that many, takes
        # every cell: a superset, which leaves the table unchanged.
        u = _wrap_pi(drift - psi)
        by_u = np.argsort(u)
        turns = (u[by_u] + _SHIFTS[:, np.newaxis]).ravel()
        del u
        # The angles formed reach |m0| + |drift| + 2 pi at most.
        radius = 0.5 * (b - a) + half_width.max(initial=0.0) + _slack(
            max(map(abs, spec.mean_anomalies0)) + np.abs(drift).max(initial=0.0) + TWO_PI
        )
        m0 = np.array(spec.mean_anomalies0)
        centre = _wrap_pi(-m0 - 0.5 * (a + b))
        first = turns.searchsorted(centre - radius)
        length = np.minimum(turns.searchsorted(centre + radius) - first, by_u.size)
        row = _PhaseRow(always, part, half_width, drift, psi, by_u, a, b)
        # A damaged satellite takes no part in the game and gets no table.
        # The others go in index order into groups whose windows hold at
        # most _GROUP_ENTRIES entries together; a longer window is built
        # alone.
        self._reach: list[_Reach | None] = [None] * n
        groups: list[list[int]] = []
        held = 0
        for i, size in enumerate(length.tolist()):
            if i + 1 in damaged:
                continue
            if size > _GROUP_ENTRIES:
                self._reach[i] = row.window_table(spec.mean_anomalies0[i], int(first[i]), size)
                continue
            if not groups or held + size > _GROUP_ENTRIES:
                groups.append([])
                held = 0
            groups[-1].append(i)
            held += size
        for group in groups:
            for i, table in zip(group, row.group_tables(m0[group], first[group], length[group])):
                self._reach[i] = table

    def _candidates(self) -> np.ndarray:
        """The cells of the blocks the visibility pre-pass keeps, ascending.

        Exact geometry at every :data:`_STRIDE`-th cell and the last one,
        then only the blocks between two samples that can hold a visible
        cell. amp moves by at most ``|d alpha|`` between two cells (see
        :meth:`_target_in_orbit_frame`), and every cell lies within half a
        block of its nearer sample, so a cell with ``amp >= cos_bar`` sits
        in a block with a sample at ``amp >= cos_bar - bound``. Below that,
        the ratio ``cos_bar / amp`` exceeds 1 by far more than any rounding.
        """
        grid, spec = self.grid, self.spec
        cos_bar = math.cos(self.target.view_half_angle)
        samples = np.append(np.arange(0, grid.n_steps, _STRIDE), grid.n_steps - 1)
        sample_elapsed = _elapsed(grid, samples)
        sample_amp = np.hypot(*self._target_in_orbit_frame(sample_elapsed))
        alpha_rate = abs(self.rates.node_rate + self.constants.earth_rotation_rate)
        bound = 0.5 * alpha_rate * np.diff(sample_elapsed)
        alpha_max = (
            abs(spec.raan0) + abs(spec.greenwich_angle0) + alpha_rate * sample_elapsed[-1]
        )
        near = np.maximum(sample_amp[:-1], sample_amp[1:]) >= (
            cos_bar - bound - _slack(alpha_max)
        )
        # Block i holds the cells from sample i up to sample i + 1, the last
        # block its end too. A view half-angle of 90 degrees or more makes
        # the threshold negative, and every block is kept. The candidates
        # are formed from the kept blocks alone.
        lengths = np.diff(samples)
        lengths[-1] += 1
        lengths, firsts = lengths[near], samples[:-1][near]
        offsets = np.cumsum(lengths) - lengths
        return np.arange(lengths.sum()) + np.repeat(firsts - offsets, lengths)

    def _visible_arcs(
        self, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The cells among ``candidates`` that some phase can see, with their arcs.

        Returns ``(cells, half_width, psi, drift)``: the visible cells, and
        for each the half-width and centre of its visible phase arc and the
        phase drift at its left edge. The mask axis is those cells: no
        satellite covers any other cell, and every measure is dt times a
        count, so dropping them changes no value.
        """
        cos_bar = math.cos(self.target.view_half_angle)
        elapsed = _elapsed(self.grid, candidates)
        v1, v2 = self._target_in_orbit_frame(elapsed)
        amp = np.hypot(v1, v2)
        # The visible phase arc at each time has half-width arccos(cos_bar /
        # amp); the target is out of reach of the whole orbit when that ratio
        # exceeds 1. A threshold angle of 90 degrees or more keeps even the
        # projection-degenerate geometry (amp == 0) visible, with the whole
        # circle as its arc.
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(amp > 0.0, cos_bar / amp, math.inf)
        visible = ratio <= 1.0
        if cos_bar <= 0.0:
            visible |= amp == 0.0
        half_width = np.where(
            amp[visible] == 0.0, np.pi, np.arccos(np.clip(ratio[visible], -1.0, 1.0))
        )
        psi = np.arctan2(v2[visible], v1[visible])
        drift = self.rates.phase_rate * elapsed[visible]
        return candidates[visible], half_width, psi, drift

    def _target_in_orbit_frame(self, elapsed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The unit target's in-plane components ``(v1, v2)`` at ``elapsed``.

        Pulls the target back through the inverse frame chain: the composite
        z-rotation by ``alpha`` (node + sidereal) followed by the inclination
        tilt. ``amp = hypot(v1, v2)``; since ``d(v1, v2) / d alpha = (-w2,
        cos(i) v1)`` has length at most the target's equatorial radius, at
        most 1, ``amp`` moves by at most ``|d alpha|``.
        """
        spec, constants = self.spec, self.constants
        unit_target = target_position_ecf(constants, self.target) / constants.earth_radius
        alpha = (
            spec.raan0
            + self.rates.node_rate * elapsed
            + spec.greenwich_angle0
            + constants.earth_rotation_rate * elapsed
        )
        ca, sa = np.cos(alpha), np.sin(alpha)
        v1 = ca * unit_target[0] - sa * unit_target[1]
        w2 = sa * unit_target[0] + ca * unit_target[1]
        ci, si = math.cos(spec.inclination), math.sin(spec.inclination)
        v2 = ci * w2 - si * unit_target[2]
        return v1, v2

    def _table(self, k: int) -> _Reach:
        reach = self._reach[k - 1]
        if reach is None:
            raise ValueError(f"satellite {k} is damaged: the coverage holds no table for it")
        return reach

    def _check(self, k: int, theta: float) -> None:
        if not self.interval.contains(theta):
            raise ValueError(
                f"strategy {theta!r} of agent {k} is outside the interval "
                f"[{self.interval.lo!r}, {self.interval.hi!r}] the coverage was built for"
            )

    # Test-only, kept for perfbench/tracer.py SPANS (orbit.mask) until ROADMAP item A.
    def __call__(self, k: int, theta: float) -> np.ndarray:
        """Mask over ``cells`` of satellite ``k`` (1-based) playing offset ``theta``.

        True at :meth:`covered_positions`. The game is not its caller:
        :meth:`~covgame.game.GameInstance.coverage` scatters its own masks
        from those positions, so this serves the tests as the single mask.
        """
        mask = np.zeros(self.cells.size, dtype=bool)
        mask[self.covered_positions(k, theta)] = True
        return mask

    def covered_positions(self, k: int, theta: float) -> np.ndarray:
        """Mask positions of the cells satellite ``k`` covers playing ``theta``.

        The cells of the table rows that hold ``theta``, in the table's
        order: ``cell[(lo <= theta) & (theta <= hi)]``. The rows are sorted
        by ``lo``, so the rows with ``lo <= theta`` are a prefix, found by
        one ``searchsorted``, and only its ``hi`` ends are compared; the
        cells are taken by ``compress``. The rows of one cell are disjoint,
        so no position repeats.
        """
        self._check(k, theta)
        reach = self._table(k)
        held = reach.lo.searchsorted(theta, "right")
        return reach.cell[:held].compress(theta <= reach.hi[:held])

    def masked_cell_counts(
        self, k: int, thetas: np.ndarray, ends: tuple[np.ndarray, np.ndarray]
    ) -> np.ndarray:
        """Covered-cell counts restricted to some cells, for any strategies.

        ``ends`` is the pair ``(starts, stops)`` that :meth:`breakpoints` or
        :meth:`scan` returned for satellite ``k`` and a row mask ``within``;
        the result counts ``|coverage(k, theta) & within|``, with ``within``
        read as the cells it marks, for every entry of an ascending
        ``thetas`` array. A row holds ``theta`` iff ``lo <= theta`` and
        ``theta <= hi``, the comparisons of a single mask, and every row has
        ``lo <= hi``, so the count is the number of starts at or below
        ``theta`` minus the number of stops below it: two ``searchsorted``
        passes over the ascending ends. Every theta must lie in the built
        interval, and ``thetas`` must be sorted ascending; otherwise
        ``ValueError`` is raised. :func:`~covgame.game.best_response_gain`
        calls this with the incumbent alone, unless the incumbent is the
        stored maximizer or the one whose gain the stored answer last
        counted; the tests call it as the reference count of :meth:`scan`.
        """
        thetas = np.asarray(thetas, dtype=float)
        if thetas.size == 0:
            return np.zeros(0, dtype=int)
        if thetas.size > 1 and not (thetas[1:] >= thetas[:-1]).all():
            raise ValueError(f"strategies of agent {k} must be sorted ascending")
        self._check(k, thetas[0])
        self._check(k, thetas[-1])
        starts, stops = ends
        return starts.searchsorted(thetas, "right") - stops.searchsorted(thetas)

    def breakpoints(self, k: int, within: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where the count of :meth:`masked_cell_counts` can change.

        ``within`` is a boolean row mask, one entry per entry of
        :meth:`reach_positions`, true where that position's cell counts: the
        entries a mask over ``cells`` has at those positions. Returns
        ``(starts, stops)``, each sorted ascending: the ``lo`` and ``hi``
        ends of the rows of satellite ``k``'s segment table that ``within``
        marks, selected by ``compress``, which a mask that mixes true and
        false entries does not slow down as it does a boolean index. The
        table keeps both ends presorted, so selecting rows keeps that order,
        no sort runs here, and nothing of ``n_cells`` entries is read. Each marked cell is covered exactly on
        the union of its rows, so the count changes only at these ends, and
        moving toward 0 it cannot fall before it passes one of them.
        """
        reach = self._table(k)
        return reach.lo.compress(within), reach.stop.compress(within[reach.stop_row])

    def scan(
        self, k: int, within: np.ndarray, lo: float, z: float, hi: float
    ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """The candidates of a best response over ``[lo, hi]``, each with its count.

        ``within`` is the row mask :meth:`breakpoints` takes, and
        ``lo <= z <= hi`` must lie in the built interval (``ValueError``
        otherwise). Returns ``(candidates, counts, ends)``: the ascending
        candidates, the stops in ``[lo, z)``, then ``z``, then the starts in
        ``(z, hi]``; for each, the count of :meth:`masked_cell_counts` at
        it; and the ``(starts, stops)`` pair of :meth:`breakpoints`, against
        which any other strategy is counted later.

        A candidate's place in its own ascending array is known from the
        slice that took it, so each count needs one binary search, in the
        other array: a stop at position ``j`` has ``j`` stops below it, and
        a start at position ``i`` has ``i + 1`` starts at or below it. In a
        run of equal ends this is exact for the first stop and the last
        start, and under-counts the other copies, which share their
        ``theta``; so for any objective that rises with the count, the
        first maximizer's ``theta`` and value are those of exact counts.
        ``z`` is counted by the slicing searches alone.
        """
        self._check(k, lo)
        self._check(k, hi)
        starts, stops = ends = self.breakpoints(k, within)
        first, last = stops.searchsorted((lo, z)).tolist()
        start, end = starts.searchsorted((z, hi), "right").tolist()
        below, above = stops[first:last], starts[start:end]
        counts = np.concatenate(
            (
                starts.searchsorted(below, "right") - np.arange(first, last),
                [start - last],
                np.arange(start + 1, end + 1) - stops.searchsorted(above),
            )
        )
        return np.concatenate((below, [z], above)), counts, ends

    def reach_positions(self, k: int) -> np.ndarray:
        """Mask positions of the cells satellite ``k`` can cover, one per row.

        The cells of its segment table in the table's order, so a cell with
        rows at two shifts appears twice: entry ``i`` is the cell of row
        ``i``, and :meth:`breakpoints` takes its row mask in this order.
        Exact over the whole continuum of strategies that the interval
        accepts, since each row meets the interval, so every single mask of
        a strategy in the interval lies on them. The array is the table's
        own and must not be changed.
        """
        return self._table(k).cell


def build_constellation_game(
    constants: OrbitConstants,
    spec: ConstellationSpec,
    target: TargetSpec,
    grid: TimeGrid,
    gamma: float,
    strategy_space: StrategyInterval,
    theta_max: float | tuple[float, ...],
    damaged: frozenset[int] | set[int] = frozenset(),
) -> GameInstance:
    """Wire the orbital model into a coverage game.

    Damaged satellites (1-based indices) become inactive agents: no coverage,
    no penalty, no strategy dimension, and the coverage builds no table for
    them. The game derives its neighbor graph from the satellites' exact
    reaches (:meth:`ConstellationCoverage.reach_positions`), so any two
    satellites whose windows can ever intersect within their strategy
    intervals are linked for the whole run; the global objective then moves
    by exactly each unilateral local-objective change.
    """
    n = spec.n_satellites
    if isinstance(theta_max, (int, float)):
        theta_max_values = (float(theta_max),) * n
    else:
        theta_max_values = tuple(float(v) for v in theta_max)
    if len(theta_max_values) != n:
        raise ValueError(
            f"got {len(theta_max_values)} theta_max values for {n} satellites"
        )
    coverage = ConstellationCoverage(constants, spec, target, grid, strategy_space, damaged)
    agents = tuple(
        AgentSpec(
            index=k,
            strategy_space=strategy_space,
            theta_max=theta_max_values[k - 1],
            active=k not in damaged,
        )
        for k in range(1, n + 1)
    )
    return GameInstance(agents=agents, grid=grid, coverage_fn=coverage, gamma=gamma)
