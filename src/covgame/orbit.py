"""Circular low-Earth-orbit constellation model with secular oblateness drift.

Satellites share one circular orbit; the dominant oblateness (J2) effect makes
the ascending node and each satellite's orbital phase drift linearly in time.
A satellite's strategy is a one-time phase offset added to its initial mean
anomaly. Ground-target visibility is a pure geocentric-angle threshold between
the satellite and target position vectors in the Earth-fixed frame, sampled at
the left edge of every grid cell, which makes each satellite's coverage a
union of short time windows. Masks run over the cells some phase can see,
not over the whole grid. The coverage is built for the game's strategy
interval, and each satellite stores the covering bounds of its reach alone:
the cells some strategy in that interval covers (see
:class:`ConstellationCoverage`).

Frames follow the usual chain: orbital plane -> inertial via node and
inclination rotations, inertial -> Earth-fixed via the sidereal angle. The
rotation matrices are active (counterclockwise) rotations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .game import (
    CONTAINS_TOL,
    AgentSpec,
    GameInstance,
    StrategyInterval,
    neighbor_graph_from_masks,
)
from .measure import TimeGrid

TWO_PI = 2.0 * math.pi


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

    Angles in radians, lengths in km. The orbit is circular: eccentricity and
    argument of perigee are pinned to zero and the geocentric distance is the
    semi-major axis.
    """

    semi_major_axis: float
    inclination: float
    raan0: float                      # ascending-node angle at t0
    greenwich_angle0: float           # sidereal hour angle at t0
    mean_anomalies0: tuple[float, ...]  # initial phase of each satellite
    eccentricity: float = 0.0
    arg_perigee: float = 0.0

    def __post_init__(self) -> None:
        if self.eccentricity != 0.0 or self.arg_perigee != 0.0:
            raise ValueError("only circular orbits are modeled (e = omega = 0)")
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
        spacing: float | None = None,
    ) -> "ConstellationSpec":
        """Ring of ``n_satellites`` with phase ``(k-1)*spacing`` for satellite k."""
        if n_satellites < 1:
            raise ValueError("need at least one satellite")
        if spacing is None:
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


def rot_x(angle: float) -> np.ndarray:
    """Active rotation by ``angle`` radians about the x axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    """Active rotation by ``angle`` radians about the y axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    """Active rotation by ``angle`` radians about the z axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def drift_rates(constants: OrbitConstants, spec: ConstellationSpec) -> DriftRates:
    """Secular node and phase rates for the shared orbit.

    With mean motion ``n = sqrt(mu / a^3)`` and the oblateness coefficient
    ``c = 1.5 n j2 (Re/a)^2 / (1-e^2)^2``, the node drifts at ``-c cos(i)``
    and the phase advances at ``n - c sqrt(1-e^2) (1.5 sin(i)^2 - 1)``.
    """
    a = spec.semi_major_axis
    e = spec.eccentricity
    n_m = math.sqrt(constants.mu / a**3)
    c_j2 = 1.5 * n_m * constants.j2 / (1.0 - e * e) ** 2 * (constants.earth_radius / a) ** 2
    node_rate = -c_j2 * math.cos(spec.inclination)
    phase_rate = n_m - c_j2 * math.sqrt(1.0 - e * e) * (
        1.5 * math.sin(spec.inclination) ** 2 - 1.0
    )
    return DriftRates(node_rate=node_rate, phase_rate=phase_rate)


def mean_motion(constants: OrbitConstants, spec: ConstellationSpec) -> float:
    return math.sqrt(constants.mu / spec.semi_major_axis**3)


def orbital_period(constants: OrbitConstants, spec: ConstellationSpec) -> float:
    """Unperturbed orbital period, seconds."""
    return TWO_PI / mean_motion(constants, spec)


def mean_anomaly(
    spec: ConstellationSpec, rates: DriftRates, k: int, theta: float, elapsed: float
) -> float:
    """Phase of satellite ``k`` (1-based) after ``elapsed`` seconds.

    The strategy ``theta`` is a one-time offset on the initial phase.
    """
    return spec.mean_anomalies0[k - 1] + theta + rates.phase_rate * elapsed


def satellite_position_ecf(
    constants: OrbitConstants,
    spec: ConstellationSpec,
    rates: DriftRates,
    k: int,
    theta: float,
    t: float,
    t0: float = 0.0,
) -> np.ndarray:
    """Earth-fixed position (km) of satellite ``k`` at time ``t``.

    The in-plane position at the current phase is rotated into the inertial
    frame through the argument of perigee, inclination and the drifted node,
    then into the Earth-fixed frame through the sidereal angle.
    """
    elapsed = t - t0
    m_k = mean_anomaly(spec, rates, k, theta, elapsed)
    r_k = spec.semi_major_axis  # circular orbit
    in_plane = np.array([r_k * math.cos(m_k), r_k * math.sin(m_k), 0.0])
    raan = spec.raan0 + rates.node_rate * elapsed
    eci = rot_z(-raan) @ rot_x(-spec.inclination) @ rot_z(-spec.arg_perigee) @ in_plane
    sidereal = spec.greenwich_angle0 + constants.earth_rotation_rate * elapsed
    return rot_z(-sidereal) @ eci


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


def geocentric_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle at the Earth's center between two position vectors, radians."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("geocentric angle of a zero vector is undefined")
    c = float(np.dot(u, v)) / (nu * nv)
    return math.acos(min(1.0, max(-1.0, c)))


def _wrap_pi(x: np.ndarray) -> np.ndarray:
    """Wrap angles into (-pi, pi]."""
    return np.pi - np.mod(np.pi - x, TWO_PI)


class _Reach(NamedTuple):
    """One satellite's reach: the cells some strategy in the interval covers.

    ``index`` holds their sorted positions on the mask axis, ``lo`` and
    ``hi`` their covering-interval bounds, and ``alias`` the positions (into
    ``index``) of the few cells that an offset in the interval can cover
    through a ``2 pi`` alias of their bounds.
    """

    index: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    alias: np.ndarray


def _meets(lo: np.ndarray, hi: np.ndarray, a: float, b: float) -> np.ndarray:
    """Cells whose covering interval ``[lo, hi]``, or an alias of it, meets ``[a, b]``."""
    meets = (lo <= b) & (hi >= a)
    meets |= lo + TWO_PI <= b
    meets |= hi - TWO_PI >= a
    return meets


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

    Re-expressed in the strategy variable, every visible cell ``j`` is
    covered exactly for the offsets in ``[lo_j, hi_j]`` (plus its ``2 pi``
    aliases). The coverage is built for one strategy ``interval``, which the
    game's agents share: each satellite keeps the bounds of its *reach*
    alone, the cells whose covering interval (or an alias) meets the
    interval widened by :data:`~covgame.game.CONTAINS_TOL`, so every offset
    that ``interval.contains`` accepts gets an exact mask. An offset outside
    it raises ``ValueError``. A single mask costs two comparisons per reach
    cell, scattered into a mask that still has one entry per visible cell.
    The interval ends are also what an exact best response scores
    (:meth:`breakpoints`), and scoring a sorted array of strategies costs
    one ``searchsorted`` pass over the reach that reproduces those
    comparisons exactly, so the two can never disagree on a boundary cell.
    The reach itself (used to freeze the neighbor graph) contains every
    single mask of a strategy in the interval.
    """

    def __init__(
        self,
        constants: OrbitConstants,
        spec: ConstellationSpec,
        target: TargetSpec,
        grid: TimeGrid,
        interval: StrategyInterval,
    ) -> None:
        if interval.lo < -math.pi or interval.hi > math.pi:
            raise ValueError("strategy interval must lie within [-pi, pi]")
        self.constants = constants
        self.spec = spec
        self.target = target
        self.grid = grid
        self.interval = interval
        self.rates = drift_rates(constants, spec)

        elapsed = grid.cell_starts() - grid.t0
        unit_target = target_position_ecf(constants, target) / constants.earth_radius
        # Pull the target back through the inverse frame chain: the composite
        # z-rotation (node + sidereal) followed by the inclination tilt.
        alpha = (
            spec.raan0
            + self.rates.node_rate * elapsed
            + spec.greenwich_angle0
            + constants.earth_rotation_rate * elapsed
        )
        ca, sa = np.cos(alpha), np.sin(alpha)
        w1 = ca * unit_target[0] - sa * unit_target[1]
        w2 = sa * unit_target[0] + ca * unit_target[1]
        w3 = np.full_like(w1, unit_target[2])
        ci, si = math.cos(spec.inclination), math.sin(spec.inclination)
        v1 = w1
        v2 = ci * w2 - si * w3

        amp = np.hypot(v1, v2)
        psi = np.arctan2(v2, v1)
        cos_bar = math.cos(target.view_half_angle)
        # Half-width of the visible phase arc at each time; negative when the
        # target is out of reach of the whole orbit at that time. A threshold
        # angle of 90 degrees or more keeps even the projection-degenerate
        # geometry (amp == 0) visible.
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(amp > 0.0, cos_bar / amp, math.inf)
        half_width = np.where(ratio > 1.0, -1.0, np.arccos(np.clip(ratio, -1.0, 1.0)))
        if cos_bar <= 0.0:
            half_width = np.where(amp == 0.0, np.pi, half_width)
        # The mask axis: cells some phase can see. No satellite covers any
        # other cell, and every measure is dt times a count, so dropping
        # them changes no value.
        self.cells = np.flatnonzero(half_width >= 0.0)
        half_width = half_width[self.cells]
        elapsed = elapsed[self.cells]
        psi = psi[self.cells]

        # The offsets a mask is ever computed at: the accepted interval, and
        # where it reaches past +-pi, the wrapped images _mask compares. A
        # cell can be covered through an alias only if lo + 2 pi <= last or
        # hi - 2 pi >= first.
        a = interval.lo - CONTAINS_TOL
        b = interval.hi + CONTAINS_TOL
        spans = [(a, b)]
        if a <= -math.pi:
            spans.append((float(_wrap_pi(a)), math.pi))
        if b > math.pi:
            spans.append((-math.pi, float(_wrap_pi(b))))
        first = min(x for x, _ in spans)
        last = max(y for _, y in spans)

        # Strategy interval covering each cell, per satellite: a cell is
        # covered iff wrap(theta) lands in [lo, hi] or one of the 2 pi
        # aliases of that interval.
        self._reach: list[_Reach] = []
        for m0 in spec.mean_anomalies0:
            base = _wrap_pi(m0 + self.rates.phase_rate * elapsed - psi)
            lo = -base - half_width
            hi = -base + half_width
            index = np.flatnonzero(
                np.logical_or.reduce([_meets(lo, hi, x, y) for x, y in spans])
            )
            lo, hi = lo[index], hi[index]
            alias = np.flatnonzero((lo + TWO_PI <= last) | (hi - TWO_PI >= first))
            self._reach.append(_Reach(index, lo, hi, alias))

    def _check(self, k: int, theta: float) -> None:
        if not self.interval.contains(theta):
            raise ValueError(
                f"strategy {theta!r} of agent {k} is outside the interval "
                f"[{self.interval.lo!r}, {self.interval.hi!r}] the coverage was built for"
            )

    def _mask(self, k: int, theta: float) -> np.ndarray:
        self._check(k, theta)
        if not (-math.pi < theta <= math.pi):
            # Keep in-range strategies bit-identical to the batch comparisons;
            # wrapping would perturb them by an ulp.
            theta = float(_wrap_pi(theta))
        reach = self._reach[k - 1]
        inside = (reach.lo <= theta) & (theta <= reach.hi)
        lo = reach.lo[reach.alias]
        hi = reach.hi[reach.alias]
        inside[reach.alias] |= (theta >= lo + TWO_PI) | (theta <= hi - TWO_PI)
        mask = np.zeros(self.cells.size, dtype=bool)
        mask[reach.index[inside]] = True
        return mask

    def __call__(self, k: int, theta: float) -> np.ndarray:
        """Mask over ``cells`` of satellite ``k`` (1-based) playing offset ``theta``."""
        return self._mask(k, theta)

    def masked_cell_counts(
        self, k: int, thetas: np.ndarray, within: np.ndarray
    ) -> np.ndarray:
        """Covered-cell counts restricted to ``within``, for many strategies.

        Counts ``|coverage(k, theta) & within|`` for every entry of a sorted
        ``thetas`` array in one pass over the reach of ``k``: each cell
        contributes its strategy interval (and aliases) to a difference
        array indexed by ``searchsorted``, whose comparisons agree exactly
        with the per-mask path. ``within`` is a mask over ``cells``. Every
        theta must lie in the built interval; a grid that is not sorted
        ascending within ``(-pi, pi]`` is counted one mask at a time.
        """
        thetas = np.asarray(thetas, dtype=float)
        if thetas.size == 0:
            return np.zeros(0, dtype=int)
        if np.any(np.diff(thetas) < 0.0) or thetas[0] <= -math.pi or thetas[-1] > math.pi:
            return np.array(
                [int(np.count_nonzero(self._mask(k, t) & within)) for t in thetas]
            )
        self._check(k, thetas[0])
        self._check(k, thetas[-1])
        reach = self._reach[k - 1]
        select = within[reach.index]
        lo = reach.lo[select]
        hi = reach.hi[select]
        # Every theta lies in the built interval, so a cell outside
        # reach.alias adds nothing through an alias; leaving it out is exact.
        alias = reach.alias[select[reach.alias]]
        alo = reach.lo[alias]
        ahi = reach.hi[alias]
        alo_up = alo + TWO_PI
        ahi_down = ahi - TWO_PI
        # Closed intervals [start, stop] in theta: the main interval and its
        # two aliases add; the inclusion-exclusion terms for the
        # (degenerate, half_width == pi) case in which an alias overlaps the
        # main interval subtract.
        starts = np.concatenate(
            (lo, alo_up, np.full(alias.size, -math.inf), alo_up, alo)
        )
        stops = np.concatenate(
            (hi, np.full(alias.size, math.inf), ahi_down, ahi, ahi_down)
        )
        # searchsorted reproduces the exact (theta >= start) & (theta <= stop)
        # comparisons. An added interval opens at i0 and closes at i1, a
        # subtracted one the other way round; an interval that misses every
        # theta gets i1 = i0 and so opens and closes at the same index. One
        # bincount makes the difference array, with the closing events in
        # its second half.
        i0 = np.searchsorted(thetas, starts, side="left")
        i1 = np.searchsorted(thetas, stops, side="right")
        np.maximum(i0, i1, out=i1)
        m = thetas.size + 1
        added = lo.size + 2 * alias.size
        events = np.concatenate((i0[:added], i1[added:], i1[:added] + m, i0[added:] + m))
        counts = np.bincount(events, minlength=2 * m)
        return np.cumsum(counts[: m - 1] - counts[m : 2 * m - 1])

    def breakpoints(self, k: int, within: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where the count of :meth:`masked_cell_counts` can change.

        Returns ``(starts, stops)``: the ends of the closed strategy
        intervals on which satellite ``k`` covers the reach cells of
        ``within``, counting the ``2 pi`` aliases the built interval can
        meet as :meth:`masked_cell_counts` does. A cell is covered exactly on
        the union of its intervals, so the count changes only at these ends,
        and moving toward 0 it cannot fall before it passes one of them.
        """
        reach = self._reach[k - 1]
        select = within[reach.index]
        alias = reach.alias[select[reach.alias]]
        starts = np.concatenate((reach.lo[select], reach.lo[alias] + TWO_PI))
        stops = np.concatenate((reach.hi[select], reach.hi[alias] - TWO_PI))
        return starts, stops

    def reachable_mask(self, k: int) -> np.ndarray:
        """Cells satellite ``k`` can cover for some strategy in the interval.

        Exact over the whole continuum of strategies that the interval
        accepts: cell ``j`` is reachable iff its covering interval (or an
        alias) meets the interval. Covers every per-strategy mask by
        construction.
        """
        mask = np.zeros(self.cells.size, dtype=bool)
        mask[self._reach[k - 1].index] = True
        return mask


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
    no penalty, no strategy dimension. The neighbor graph is frozen from the
    exact reachable-coverage overlap, so any two satellites whose windows can
    ever intersect within their strategy intervals are linked for the whole
    run; the global objective then moves by exactly each unilateral
    local-objective change.
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
    bad = [k for k in damaged if not (1 <= k <= n)]
    if bad:
        raise ValueError(f"damaged indices {bad} outside 1..{n}")

    agents = tuple(
        AgentSpec(
            index=k,
            strategy_space=strategy_space,
            theta_max=theta_max_values[k - 1],
            active=k not in damaged,
        )
        for k in range(1, n + 1)
    )
    coverage = ConstellationCoverage(constants, spec, target, grid, strategy_space)
    reach = {a.index: coverage.reachable_mask(a.index) for a in agents if a.active}
    return GameInstance(
        agents=agents,
        grid=grid,
        coverage_fn=coverage,
        gamma=gamma,
        neighbor_graph=neighbor_graph_from_masks(reach),
    )
