"""Scenario files: one JSON document describes a full experiment.

Every angular field carries its unit in the key name (``*_deg``) or in an
explicit ``unit`` tag, and is converted to radians here at the boundary; the
rest of the package works in radians, seconds and km only. The energy surplus
coefficient must carry an explicit unit tag because a bare number is
ambiguous.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping

from .game import GameInstance, StrategyInterval
from .measure import TimeGrid
from .optimize import PatternSearchConfig
from .orbit import (
    ConstellationSpec,
    OrbitConstants,
    TargetSpec,
    build_constellation_game,
    drift_rates,
    mean_motion,
)
from .search import SearchConfig, iteration_bound


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate; message carries the field path."""


def _get(data: Mapping[str, Any], key: str, path: str, default: Any = None) -> Any:
    """``data[key]``; a missing key is an error unless a default is given."""
    if key in data:
        return data[key]
    if default is None:
        raise ScenarioError(f"{path}.{key}: missing required field")
    return default


def _section(doc: Mapping[str, Any], key: str, required: bool = True) -> Mapping[str, Any]:
    """A top-level object-valued field; an absent optional one reads as ``{}``."""
    if required and key not in doc:
        raise ScenarioError(f"{key}: missing required field")
    value = doc.get(key, {})
    if not isinstance(value, Mapping):
        raise ScenarioError(f"{key}: expected an object")
    return value


def _known(data: Mapping[str, Any], prefix: str, fields: str) -> None:
    """Reject the first key of ``data`` that is not among the words of ``fields``.

    ``prefix`` starts the field path of each key: the object's path and a
    dot, or nothing at the top level.
    """
    allowed = fields.split()
    unknown = [key for key in data if key not in allowed]
    if unknown:
        raise ScenarioError(f"{prefix}{unknown[0]}: unknown field")


def _finite(value: Any, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ScenarioError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _number(
    data: Mapping[str, Any], key: str, path: str, default: float | None = None
) -> float:
    return _finite(_get(data, key, path, default), f"{path}.{key}")


def _int(data: Mapping[str, Any], key: str, path: str, default: int | None = None) -> int:
    value = _get(data, key, path, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{path}.{key}: expected an integer, got {value!r}")
    return value


def _positive(value: float, path: str) -> float:
    _require(value > 0.0, path, "be positive", value)
    return value


def _require(ok: bool, path: str, limit: str, value: Any) -> None:
    """Reject ``value`` of the field at ``path`` unless ``ok``.

    ``limit`` states what the field must satisfy, in the field's own unit.
    """
    if not ok:
        raise ScenarioError(f"{path}: must {limit}, got {value!r}")


def tag_errors(path: str, apply: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``apply(*args, **kwargs)``, with its validation errors tagged by ``path``.

    ``path`` is a field path, a command-line flag or a file name, which the
    :class:`ScenarioError` raised in place of a ``ValueError`` starts with.
    """
    try:
        return apply(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully parsed experiment description, SI units and radians throughout."""

    name: str
    constants: OrbitConstants
    constellation: ConstellationSpec
    target: TargetSpec
    grid: TimeGrid
    gamma: float
    strategy_space: StrategyInterval
    theta_max: tuple[float, ...]
    damaged: tuple[int, ...]
    search: SearchConfig
    centralized: PatternSearchConfig

    def __post_init__(self) -> None:
        n = self.constellation.n_satellites
        if len(self.theta_max) != n:
            raise ScenarioError(
                f"game.theta_max: {len(self.theta_max)} values for {n} satellites"
            )
        bad = [k for k in self.damaged if not (1 <= k <= n)]
        if bad:
            raise ScenarioError(f"damaged: indices {bad} outside 1..{n}")

    @property
    def n_satellites(self) -> int:
        return self.constellation.n_satellites

    def build_game(self) -> GameInstance:
        """Wire the orbital coverage game this scenario describes."""
        return build_constellation_game(
            self.constants,
            self.constellation,
            self.target,
            self.grid,
            self.gamma,
            self.strategy_space,
            self.theta_max,
            set(self.damaged),
        )

    def with_satellite_count(self, n: int) -> "ScenarioConfig":
        """Same scenario with ``n`` equally spaced satellites.

        Damaged indices beyond ``n`` are dropped; the energy surplus must be
        uniform so it can be re-broadcast.
        """
        if n < 1:
            raise ScenarioError(f"satellite count must be positive, got {n}")
        if len(set(self.theta_max)) != 1:
            raise ScenarioError(
                "cannot resize a scenario with per-satellite energy surplus"
            )
        constellation = ConstellationSpec.equally_spaced(
            n_satellites=n,
            semi_major_axis=self.constellation.semi_major_axis,
            inclination=self.constellation.inclination,
            raan0=self.constellation.raan0,
            greenwich_angle0=self.constellation.greenwich_angle0,
        )
        return replace(
            self,
            constellation=constellation,
            theta_max=(self.theta_max[0],) * n,
            damaged=tuple(k for k in self.damaged if k <= n),
        )

    def with_theta_max(self, index: int, value: float) -> "ScenarioConfig":
        """Same scenario with agent ``index``'s energy surplus set to ``value``.

        The value must be positive and finite, and its penalty at the widest
        strategy bound finite, as in a scenario file.
        """
        if not (1 <= index <= self.n_satellites):
            raise ScenarioError(f"agent {index} outside 1..{self.n_satellites}")
        if not (0.0 < value < math.inf):
            raise ScenarioError(f"theta_max must be positive and finite, got {value}")
        worst = max(abs(self.strategy_space.lo), abs(self.strategy_space.hi))
        _check_penalty(float(value), worst, f"theta_max of agent {index}")
        values = list(self.theta_max)
        values[index - 1] = float(value)
        return replace(self, theta_max=tuple(values))

    def with_search_overrides(
        self, epsilon: float | None = None, max_rounds: int | None = None
    ) -> "ScenarioConfig":
        """Same scenario with the given search settings replaced.

        Raises:
            ValueError: if a setting is invalid, or the round bound of the new
                epsilon is not finite (see :func:`round_bound`).
        """
        search = SearchConfig(
            epsilon=self.search.epsilon if epsilon is None else epsilon,
            max_rounds=self.search.max_rounds if max_rounds is None else max_rounds,
        )
        cfg = replace(self, search=search)
        round_bound(cfg)
        return cfg


def _check_penalty(theta_max: float, worst: float, path: str) -> None:
    """Reject a surplus whose penalty at ``|theta| = worst`` is not finite."""
    ratio = worst / theta_max if theta_max > 0.0 else math.inf
    if not math.isfinite(ratio * ratio):
        raise ScenarioError(
            f"{path}: too small, the penalty ({worst} / {theta_max}) ** 2 of the "
            f"widest strategy bound is not finite"
        )


def _parse_theta_max(
    data: Mapping[str, Any], n: int, path: str, worst: float
) -> tuple[float, ...]:
    """Each satellite's energy surplus, radians.

    ``worst`` is the largest ``|theta|`` of the strategy bounds; a surplus
    so small that its penalty overflows there is rejected.
    """
    if not isinstance(data, Mapping):
        raise ScenarioError(f"{path}: expected an object with 'unit' and a value")
    if "unit" not in data:
        raise ScenarioError(
            f"{path}.unit: missing required field (must be 'radian' or 'degree')"
        )
    unit = data["unit"]
    if unit not in ("radian", "degree"):
        raise ScenarioError(f"{path}.unit: must be 'radian' or 'degree', got {unit!r}")
    _known(data, f"{path}.", "unit value values")
    scale = 1.0 if unit == "radian" else math.pi / 180.0

    def surplus(value: Any, at: str) -> float:
        theta_max = _positive(_finite(value, at), at) * scale
        _check_penalty(theta_max, worst, at)
        return theta_max

    if "value" in data and "values" in data:
        raise ScenarioError(f"{path}: give either 'value' or 'values', not both")
    if "value" in data:
        return (surplus(_get(data, "value", path), f"{path}.value"),) * n
    if "values" in data:
        values = data["values"]
        if not isinstance(values, list) or len(values) != n:
            raise ScenarioError(f"{path}.values: expected a list of {n} numbers")
        return tuple(surplus(v, f"{path}.values[{i}]") for i, v in enumerate(values))
    raise ScenarioError(f"{path}: missing 'value' or 'values'")


def parse_scenario(doc: Mapping[str, Any], name_hint: str = "scenario") -> ScenarioConfig:
    """Validate and convert a parsed JSON document into a ScenarioConfig."""
    deg = math.pi / 180.0
    # A top-level seed and a search.scalar block are accepted and ignored:
    # every best response and certificate is exact.
    sections = "constants constellation target grid game search centralized"
    _known(doc, "", f"name damaged seed {sections}")

    # The fields of the constants, the target, the search and the
    # centralized baseline are checked here against the limits that their
    # constructors enforce, so that an error names the field and states the
    # limit in the field's unit.
    constants_doc = _section(doc, "constants", required=False)
    _known(constants_doc, "constants.", "mu_km3_s2 j2 earth_radius_km earth_rotation_rad_s")
    mu = _number(constants_doc, "mu_km3_s2", "constants", OrbitConstants.mu)
    j2 = _number(constants_doc, "j2", "constants", OrbitConstants.j2)
    earth_radius = _number(
        constants_doc, "earth_radius_km", "constants", OrbitConstants.earth_radius
    )
    rotation = _number(
        constants_doc, "earth_rotation_rad_s", "constants", OrbitConstants.earth_rotation_rate
    )
    for key, value in (
        ("mu_km3_s2", mu), ("earth_radius_km", earth_radius), ("earth_rotation_rad_s", rotation)
    ):
        _positive(value, f"constants.{key}")
    _require(j2 >= 0.0, "constants.j2", "be non-negative", j2)
    constants = OrbitConstants(
        mu=mu, j2=j2, earth_radius=earth_radius, earth_rotation_rate=rotation
    )

    con = _section(doc, "constellation")
    orbit = "semi_major_axis_km inclination_deg raan_deg greenwich_angle_deg"
    _known(con, "constellation.", f"n_satellites {orbit} mean_anomalies_deg phase_spacing_deg")
    n = _int(con, "n_satellites", "constellation")
    if n < 1:
        raise ScenarioError("constellation.n_satellites: must be positive")
    if "mean_anomalies_deg" in con:
        anomalies = con["mean_anomalies_deg"]
        if not isinstance(anomalies, list) or len(anomalies) != n:
            raise ScenarioError(
                f"constellation.mean_anomalies_deg: expected {n} values"
            )
        mean_anomalies = tuple(
            _finite(v, f"constellation.mean_anomalies_deg[{i}]") * deg
            for i, v in enumerate(anomalies)
        )
        if "phase_spacing_deg" in con:
            raise ScenarioError(
                "constellation: give either 'mean_anomalies_deg' or 'phase_spacing_deg', not both"
            )
    else:
        spacing = _number(con, "phase_spacing_deg", "constellation") * deg
        mean_anomalies = tuple(k * spacing for k in range(n))
    constellation = tag_errors(
        "constellation",
        ConstellationSpec,
        semi_major_axis=_number(con, "semi_major_axis_km", "constellation"),
        inclination=_number(con, "inclination_deg", "constellation") * deg,
        raan0=_number(con, "raan_deg", "constellation") * deg,
        greenwich_angle0=_number(con, "greenwich_angle_deg", "constellation") * deg,
        mean_anomalies0=mean_anomalies,
    )
    if constellation.semi_major_axis <= constants.earth_radius:
        raise ScenarioError(
            "constellation.semi_major_axis_km: orbit must be above the Earth's surface"
        )
    # The mean motion divides by the cube of the axis; a float power that
    # overflows raises OverflowError, where a product gives inf.
    axis = constellation.semi_major_axis
    if not math.isfinite(axis * axis * axis):
        raise ScenarioError(
            "constellation.semi_major_axis_km: too large, its cube is not finite"
        )

    tgt = _section(doc, "target")
    _known(tgt, "target.", "longitude_deg latitude_deg view_half_angle_deg")
    longitude = _number(tgt, "longitude_deg", "target") * deg
    latitude_deg = _number(tgt, "latitude_deg", "target")
    _require(
        abs(latitude_deg * deg) <= math.pi / 2.0,
        "target.latitude_deg",
        "lie in [-90, 90]",
        latitude_deg,
    )
    view_deg = _number(tgt, "view_half_angle_deg", "target")
    _require(
        0.0 < view_deg * deg <= math.pi, "target.view_half_angle_deg", "lie in (0, 180]", view_deg
    )
    target = TargetSpec(
        longitude=longitude, latitude=latitude_deg * deg, view_half_angle=view_deg * deg
    )

    grid_doc = _section(doc, "grid")
    _known(grid_doc, "grid.", "duration_s step_s")
    grid = tag_errors(
        "grid.step_s",
        TimeGrid,
        t0=0.0,
        tf=_positive(_number(grid_doc, "duration_s", "grid"), "grid.duration_s"),
        dt=_number(grid_doc, "step_s", "grid"),
    )
    # The summary divides by the mean motion for the orbital period, and the
    # coverage build turns every angle at the drift rates over the horizon.
    rates = drift_rates(constants, constellation)
    turn = abs(rates.node_rate) + constants.earth_rotation_rate + abs(rates.phase_rate)
    motion = mean_motion(constants, constellation)
    if not (motion > 0.0 and math.isfinite(turn * grid.duration)):
        raise ScenarioError(
            "constants: the mean motion must be positive, and the angles the orbit "
            f"turns through in the {grid.duration} s horizon finite"
        )

    game_doc = _section(doc, "game")
    _known(game_doc, "game.", "strategy_bounds_deg gamma theta_max")
    bounds = _get(game_doc, "strategy_bounds_deg", "game")
    if not isinstance(bounds, list) or len(bounds) != 2:
        raise ScenarioError("game.strategy_bounds_deg: expected [lo, hi] in degrees")
    lo, hi = (
        _finite(b, f"game.strategy_bounds_deg[{i}]") * deg for i, b in enumerate(bounds)
    )
    # A phase offset lives on the circle; the orbital coverage is built for
    # offsets in [-pi, pi] only.
    if lo < -math.pi or hi > math.pi:
        raise ScenarioError(
            f"game.strategy_bounds_deg: must lie within [-180, 180], got {bounds!r}"
        )
    strategy_space = tag_errors(
        "game.strategy_bounds_deg", StrategyInterval, lo=lo, hi=hi
    )
    # Both methods start from the zero profile, the nominal slots.
    if not lo <= 0.0 <= hi:
        raise ScenarioError(
            f"game.strategy_bounds_deg: must contain 0, the start of every method, "
            f"got {bounds!r}"
        )
    gamma = _number(game_doc, "gamma", "game")
    if gamma < 0.0:
        raise ScenarioError(f"game.gamma: must be non-negative, got {gamma!r}")
    theta_max = _parse_theta_max(
        _get(game_doc, "theta_max", "game"), n, "game.theta_max", max(abs(lo), abs(hi))
    )

    search_doc = _section(doc, "search")
    _known(search_doc, "search.", "epsilon_s max_rounds scalar")
    epsilon = _positive(_number(search_doc, "epsilon_s", "search"), "search.epsilon_s")
    max_rounds = _int(search_doc, "max_rounds", "search")
    _require(max_rounds >= 1, "search.max_rounds", "be at least 1", max_rounds)
    search = SearchConfig(epsilon=epsilon, max_rounds=max_rounds)

    cen = _section(doc, "centralized", required=False)
    _known(cen, "centralized.", "initial_step_deg step_shrink step_expand min_step_deg max_evals")
    initial_step_deg = _number(cen, "initial_step_deg", "centralized", 3.75)
    step_shrink = _number(cen, "step_shrink", "centralized", 0.5)
    step_expand = _number(cen, "step_expand", "centralized", 2.0)
    min_step_deg = _number(cen, "min_step_deg", "centralized", 0.01)
    max_evals = _int(cen, "max_evals", "centralized", 20000)
    _require(0.0 < step_shrink < 1.0, "centralized.step_shrink", "lie in (0, 1)", step_shrink)
    _require(step_expand >= 1.0, "centralized.step_expand", "be at least 1", step_expand)
    _require(min_step_deg * deg > 0.0, "centralized.min_step_deg", "be positive", min_step_deg)
    _require(
        initial_step_deg * deg >= min_step_deg * deg,
        "centralized.initial_step_deg",
        f"be at least min_step_deg ({min_step_deg!r})",
        initial_step_deg,
    )
    _require(max_evals >= 1, "centralized.max_evals", "be at least 1", max_evals)
    centralized = PatternSearchConfig(
        initial_step=initial_step_deg * deg,
        step_shrink=step_shrink,
        step_expand=step_expand,
        min_step=min_step_deg * deg,
        max_evals=max_evals,
    )

    damaged_doc = doc.get("damaged", [])
    if not isinstance(damaged_doc, list) or not all(
        isinstance(k, int) and not isinstance(k, bool) for k in damaged_doc
    ) or len(set(damaged_doc)) < len(damaged_doc):
        raise ScenarioError("damaged: expected a list of distinct integer satellite indices")

    name = doc.get("name", name_hint)
    if not isinstance(name, str):
        raise ScenarioError("name: expected a string")

    cfg = ScenarioConfig(
        name=name,
        constants=constants,
        constellation=constellation,
        target=target,
        grid=grid,
        gamma=gamma,
        strategy_space=strategy_space,
        theta_max=theta_max,
        damaged=tuple(sorted(damaged_doc)),
        search=search,
        centralized=centralized,
    )
    tag_errors("search.epsilon_s", round_bound, cfg=cfg)
    return cfg


def assumption_envelopes(cfg: ScenarioConfig) -> tuple[float, float]:
    """Loose but certainly valid global-objective bounds for this scenario.

    Upper: the whole horizon covered at zero penalty. Lower: nothing covered
    and every active agent paying the worst-case penalty of its interval.
    """
    phi_max = cfg.grid.duration
    worst = max(abs(cfg.strategy_space.lo), abs(cfg.strategy_space.hi))
    phi_min = -cfg.gamma * sum(
        (worst / cfg.theta_max[k - 1]) ** 2
        for k in range(1, cfg.n_satellites + 1)
        if k not in cfg.damaged
    )
    return phi_min, phi_max


def round_bound(cfg: ScenarioConfig) -> int:
    """Guaranteed-convergence round count from the scenario envelopes."""
    phi_min, phi_max = assumption_envelopes(cfg)
    return iteration_bound(phi_min, phi_max, cfg.search.epsilon)


def read_input_text(path: Path) -> str:
    """The text of an input file, decoded as UTF-8.

    Raises:
        ScenarioError: ``"<path>: <reason>"`` if the file is missing, is a
            directory, cannot be read or is not UTF-8 text.
    """
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        reason = "file not found"
    except IsADirectoryError:
        reason = "is a directory"
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}"
    raise ScenarioError(f"{path}: {reason}")


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and validate a scenario JSON file; every fault names the file."""
    path = Path(path)
    try:
        doc = json.loads(read_input_text(path))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    return parse_scenario(doc, name_hint=path.stem)


def bundled_scenario_path() -> Path:
    """Path of the packaged default scenario (24 equally spaced satellites)."""
    return Path(resources.files("covgame").joinpath("data/baseline_24sat.json"))
