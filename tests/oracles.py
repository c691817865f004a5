"""Independent oracles the tests check the package against.

No package code calls these. Each one computes directly what the package
computes by a faster route, so that a test can compare the two:

- ``cell_starts`` forms the left edge of every cell of a grid, as one
  grid-length array;
- ``local_value`` and ``regret`` evaluate the mask-based local objective;
- ``rot_x``, ``rot_y``, ``rot_z``, ``mean_anomaly``,
  ``satellite_position_ecf`` and ``geocentric_angle`` give the direct
  geometry that the closed-form visibility arcs are checked against.

Frames follow the usual chain: orbital plane -> inertial via node and
inclination rotations, inertial -> Earth-fixed via the sidereal angle. The
rotation matrices are active (counterclockwise) rotations.
"""
from __future__ import annotations

import math

import numpy as np

from covgame.game import GameInstance, StrategyProfile, best_response_objective
from covgame.measure import TimeGrid
from covgame.orbit import ConstellationSpec, DriftRates, OrbitConstants


def cell_starts(grid: TimeGrid) -> np.ndarray:
    """Left edge of every cell, seconds."""
    return grid.t0 + grid.dt * np.arange(grid.n_steps, dtype=float)


def local_value(game: GameInstance, index: int, profile: StrategyProfile) -> float:
    """Local objective of agent ``index`` under ``profile``.

    Only the strategies of ``index`` and its graph neighbors are read.
    """
    if not game.agent(index).active:
        raise ValueError(f"agent {index} is not active")
    neighbors = profile.theta[game.neighbor_positions[index]]
    f, _ = best_response_objective(game, index, neighbors)
    return f(profile.for_agent(index))


def regret(
    game: GameInstance, index: int, theta_new: float, profile: StrategyProfile
) -> float:
    """Local-objective change if ``index`` unilaterally switches to ``theta_new``."""
    neighbors = profile.theta[game.neighbor_positions[index]]
    f, _ = best_response_objective(game, index, neighbors)
    return f(theta_new) - f(profile.for_agent(index))


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
) -> np.ndarray:
    """Earth-fixed position (km) of satellite ``k`` at ``t`` seconds past the epoch.

    The in-plane position at the current phase is rotated into the inertial
    frame through the inclination and the drifted node, then into the
    Earth-fixed frame through the sidereal angle.
    """
    m_k = mean_anomaly(spec, rates, k, theta, t)
    r_k = spec.semi_major_axis  # circular orbit
    in_plane = np.array([r_k * math.cos(m_k), r_k * math.sin(m_k), 0.0])
    raan = spec.raan0 + rates.node_rate * t
    eci = rot_z(-raan) @ rot_x(-spec.inclination) @ in_plane
    sidereal = spec.greenwich_angle0 + constants.earth_rotation_rate * t
    return rot_z(-sidereal) @ eci


def geocentric_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle at the Earth's center between two position vectors, radians."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("geocentric angle of a zero vector is undefined")
    c = float(np.dot(u, v)) / (nu * nv)
    return math.acos(min(1.0, max(-1.0, c)))
