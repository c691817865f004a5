"""Experiment harness: method runs, sweeps, bound reporting and CSV output.

Both solution paths report the same global objective on a game built from
the same scenario, so the values in a comparison differ only by what the
optimizers found. The distributed path reads its value off the run's cover
count (the last round's ``phi``, :func:`~covgame.game.covered_value`),
which agrees with ``global_value`` bit for bit, so it builds no mask; the
centralized baseline reports through ``global_value``, which its probes go
through too, so its search scores exactly the value it reports. Its exact
polish and its certification share one cover count. A game keeps no run
state beyond its bounded mask memo, which the distributed engine leaves
empty, so a comparison builds one game per scenario point and runs both
methods on it. Each report counts the masks the memo built during its run
(``mask_builds``, which ``summary.json`` carries): 0 for the distributed
engine, and for the centralized baseline every probe's miss, a mask rebuilt
after its eviction included. The count is deterministic, unlike the wall
times, which cover the optimization loop alone:
game construction, coverage precomputation and certification are excluded,
since they are shared setup or diagnostics.
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .game import (
    CertificationReport,
    CoverCount,
    GameInstance,
    StrategyProfile,
    best_response_gain,
    certify_epsilon_equilibrium,
    global_value,
)
from .optimize import pattern_search
from .orbit import drift_rates, orbital_period
from .scenario import ScenarioConfig, assumption_envelopes, round_bound
from .search import (
    AccessAudit,
    RoundTrace,
    SearchResult,
    run_search,
)

DISTRIBUTED = "distributed"
CENTRALIZED = "centralized"


@dataclass(frozen=True)
class ComparisonReport:
    """One method's outcome on one scenario."""

    method: str
    value: float                    # final global objective, seconds
    wall_time: float                # optimization loop only, seconds
    iterations: int                 # rounds (distributed) or evaluations (centralized)
    certified: bool
    worst_gain: float               # the certificate's largest unilateral gain, seconds
    final_theta: tuple[float, ...]  # radians, one entry per satellite
    converged_at: int | None = None
    mask_builds: int = 0            # masks the game's memo built during the run


@dataclass(frozen=True)
class EnergySweepPoint:
    """One point of the energy-surplus sweep."""

    theta_max: float
    abs_theta_agent: float
    abs_theta_neighbor: float


def run_distributed(
    cfg: ScenarioConfig,
    game: GameInstance | None = None,
    audit: AccessAudit | None = None,
) -> tuple[ComparisonReport, SearchResult]:
    """Build the game, run the round engine, certify, report.

    The reported wall time is the sum of per-round times, which excludes the
    final certification scan. The reported value is the last round's
    ``phi``, read off the run's cover count.
    """
    game = cfg.build_game() if game is None else game
    builds = game.mask_builds
    initial = StrategyProfile.zeros(game.n_agents)
    result = run_search(game, initial, cfg.search, audit=audit)
    wall = sum(t.wall_time for t in result.traces)
    report = ComparisonReport(
        method=DISTRIBUTED,
        value=result.traces[-1].phi,
        wall_time=wall,
        iterations=len(result.traces),
        certified=result.certified,
        worst_gain=result.certification.worst_gain,
        final_theta=tuple(float(v) for v in result.final_profile.theta),
        converged_at=result.converged_at,
        mask_builds=game.mask_builds - builds,
    )
    return report, result


def _polish(game: GameInstance, cover: CoverCount) -> None:
    """Exact coordinate ascent: adopt each improving best response in turn.

    By the potential identity, an agent's exact best response is an exact
    line search of the global objective along its coordinate. Sweeps repeat
    until one changes nothing; every adoption raises the global objective,
    so this ends. ``cover`` is the :class:`CoverCount` of the profile to
    polish and follows each adoption, so it holds the polished profile at
    the end.
    """
    moved = True
    while moved:
        moved = False
        for k in game.active_indices:
            theta, gain = best_response_gain(game, k, cover)
            if gain > 0.0:
                cover.adopt(game, {k: theta})
                moved = True


def run_centralized(
    cfg: ScenarioConfig, game: GameInstance | None = None
) -> tuple[ComparisonReport, CertificationReport]:
    """Pattern-search the full active-strategy box from the zero profile.

    A compass search that converges, rather than exhausting its evaluation
    budget, is finished by :func:`_polish`: its polls cannot see a plateau
    narrower than their step, and an exact line search along each
    coordinate can. The certificate is of the cover count that the polish
    moved, or at the evaluation cap of one built after the timed section.
    """
    game = cfg.build_game() if game is None else game
    builds = game.mask_builds
    active = game.active_indices
    bounds = [
        (game.agent(k).strategy_space.lo, game.agent(k).strategy_space.hi)
        for k in active
    ]

    positions = np.array(active, dtype=np.intp) - 1

    def profile_of(x: np.ndarray) -> StrategyProfile:
        theta = np.zeros(game.n_agents)
        theta[positions] = x
        return StrategyProfile.owning(theta)

    def objective(x: np.ndarray) -> float:
        return global_value(game, profile_of(x))

    start = np.zeros(len(active))
    t_start = time.perf_counter()
    if active:
        x_star, _, evals = pattern_search(objective, bounds, start, cfg.centralized)
    else:
        x_star, evals = start, 0
    polished = evals < cfg.centralized.max_evals
    if polished:
        cover = CoverCount(game, profile_of(x_star))
        _polish(game, cover)
    wall = time.perf_counter() - t_start

    if not polished:
        cover = CoverCount(game, profile_of(x_star))
    certification = certify_epsilon_equilibrium(game, cover, cfg.search.epsilon)
    final = StrategyProfile(cover.theta)
    report = ComparisonReport(
        method=CENTRALIZED,
        value=global_value(game, final),
        wall_time=wall,
        iterations=evals,
        certified=certification.certified,
        worst_gain=certification.worst_gain,
        final_theta=tuple(float(v) for v in final.theta),
        mask_builds=game.mask_builds - builds,
    )
    return report, certification


def sweep_satellite_count(
    cfg: ScenarioConfig, counts: Sequence[int]
) -> list[tuple[int, ComparisonReport]]:
    """Run both methods on one game per constellation size; rows are (N, report)."""
    rows: list[tuple[int, ComparisonReport]] = []
    for n in counts:
        point = cfg.with_satellite_count(n)
        game = point.build_game()
        distributed, _ = run_distributed(point, game)
        centralized, _ = run_centralized(point, game)
        rows.append((n, distributed))
        rows.append((n, centralized))
    return rows


def sweep_energy_coefficient(
    cfg: ScenarioConfig, agent: int, values: Sequence[float]
) -> list[EnergySweepPoint]:
    """Distributed runs varying one agent's energy surplus coefficient.

    Reports the final strategy magnitude of the varied agent and of its
    next-indexed ring neighbor.
    """
    if not (1 <= agent <= cfg.n_satellites):
        raise ValueError(f"agent {agent} outside 1..{cfg.n_satellites}")
    neighbor = agent + 1 if agent < cfg.n_satellites else 1
    # Every value is checked before the first run.
    point_cfgs = [cfg.with_theta_max(agent, value) for value in values]
    points: list[EnergySweepPoint] = []
    for value, point_cfg in zip(values, point_cfgs):
        report, _ = run_distributed(point_cfg)
        points.append(
            EnergySweepPoint(
                theta_max=float(value),
                abs_theta_agent=abs(report.final_theta[agent - 1]),
                abs_theta_neighbor=abs(report.final_theta[neighbor - 1]),
            )
        )
    return points


def phase_linearity_residual(
    final_theta: Sequence[float], mean_anomalies0: Sequence[float], active: Sequence[int]
) -> float:
    """RMS residual (radians) of the active final phases against a linear fit.

    Diagnostic for how evenly the ring redistributed itself; reported, never
    thresholded.
    """
    phases = np.array(
        [mean_anomalies0[k - 1] + final_theta[k - 1] for k in active]
    )
    order = np.arange(len(phases), dtype=float)
    if len(phases) < 2:
        return 0.0
    coeffs = np.polyfit(order, np.unwrap(phases), 1)
    fit = np.polyval(coeffs, order)
    return float(np.sqrt(np.mean((np.unwrap(phases) - fit) ** 2)))


def stop_reason(cfg: ScenarioConfig, report: ComparisonReport) -> str:
    """Why a method run stopped: it converged, or its budget ran out.

    The distributed engine converged once a round elected nobody; the
    compass search converged once its step fell below the minimum.
    """
    if report.method == DISTRIBUTED:
        return "converged" if report.converged_at is not None else "round budget exhausted"
    if report.iterations >= cfg.centralized.max_evals:
        return "evaluation budget exhausted"
    return "converged"


def emit_results(
    out_dir: str | Path,
    cfg: ScenarioConfig,
    reports: Sequence[ComparisonReport],
    traces: Sequence[RoundTrace] = (),
) -> dict[str, Path]:
    """Write comparison, trace, profile CSVs and a machine-readable summary.

    File contents are deterministic for deterministic runs except for the
    wall-time columns. The summary gives each method's ``stop_reason`` (see
    :func:`stop_reason`) next to ``certified``, the certificate's
    ``worst_gain_s`` and the masks built during the run, ``mask_builds``,
    and for the distributed method the largest regret of
    the last round in ``traces``. Each profile CSV carries every strategy
    twice: ``theta_deg`` rounded for reading, ``theta_rad`` exact for
    ``covgame certify``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    written["comparison"] = _write_csv(
        out / "comparison.csv",
        ["method", "value_s", "time_s", "iters", "certified"],
        (
            [r.method, f"{r.value:.6f}", f"{r.wall_time:.6f}", r.iterations, int(r.certified)]
            for r in reports
        ),
    )
    written["trace"] = _write_csv(
        out / "trace.csv",
        ["iter", "phi_s", "n_innovators", "max_regret_s", "wall_time_s"],
        (
            [
                t.iteration,
                f"{t.phi:.6f}",
                len(t.innovators),
                f"{t.max_regret:.6f}",
                f"{t.wall_time:.6f}",
            ]
            for t in traces
        ),
    )

    for r in reports:
        name = "profile.csv" if r.method == DISTRIBUTED else f"profile_{r.method}.csv"
        rows = []
        for k in range(1, cfg.n_satellites + 1):
            theta = r.final_theta[k - 1]
            penalty = (theta / cfg.theta_max[k - 1]) ** 2 if k not in cfg.damaged else 0.0
            rows.append([k, f"{np.degrees(theta):.9f}", f"{penalty:.9f}", repr(theta)])
        # theta_rad holds the exact strategy: an exact best response sits on
        # a closed interval end, which a rounded theta_deg can miss.
        written[f"profile_{r.method}"] = _write_csv(
            out / name, ["agent", "theta_deg", "energy_penalty", "theta_rad"], rows
        )

    phi_min, phi_max = assumption_envelopes(cfg)
    rates = drift_rates(cfg.constants, cfg.constellation)
    summary = {
        "scenario": cfg.name,
        "n_satellites": cfg.n_satellites,
        "damaged": list(cfg.damaged),
        "epsilon_s": cfg.search.epsilon,
        "max_rounds": cfg.search.max_rounds,
        "gamma": cfg.gamma,
        "grid": {"duration_s": cfg.grid.duration, "step_s": cfg.grid.dt},
        "constants": asdict(cfg.constants),
        "orbit": {
            "semi_major_axis_km": cfg.constellation.semi_major_axis,
            "inclination_deg": float(np.degrees(cfg.constellation.inclination)),
            "period_s": orbital_period(cfg.constants, cfg.constellation),
            "node_rate_rad_s": rates.node_rate,
            "phase_rate_rad_s": rates.phase_rate,
        },
        "bound": {
            "phi_min_s": phi_min,
            "phi_max_s": phi_max,
            "rounds": round_bound(cfg),
        },
        "methods": {},
    }
    active = [k for k in range(1, cfg.n_satellites + 1) if k not in cfg.damaged]
    for r in reports:
        summary["methods"][r.method] = {
            "value_s": r.value,
            "wall_time_s": r.wall_time,
            "iterations": r.iterations,
            "certified": r.certified,
            "worst_gain_s": r.worst_gain,
            "converged_at": r.converged_at,
            "mask_builds": r.mask_builds,
            "stop_reason": stop_reason(cfg, r),
            "last_max_regret_s": (
                traces[-1].max_regret if r.method == DISTRIBUTED and traces else None
            ),
            "phase_linearity_residual_rad": phase_linearity_residual(
                r.final_theta, cfg.constellation.mean_anomalies0, active
            ),
        }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    written["summary"] = summary_path
    return written


def write_sweep_counts_csv(
    out_dir: str | Path, rows: Sequence[tuple[int, ComparisonReport]]
) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _write_csv(
        out / "sweep_counts.csv",
        ["N", "method", "value_s", "time_s", "iters", "certified"],
        (
            [n, r.method, f"{r.value:.6f}", f"{r.wall_time:.6f}", r.iterations, int(r.certified)]
            for n, r in rows
        ),
    )


def write_sweep_energy_csv(
    out_dir: str | Path, points: Sequence[EnergySweepPoint]
) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _write_csv(
        out / "sweep_energy.csv",
        ["theta_max", "abs_theta_k", "abs_theta_neighbor"],
        (
            [f"{p.theta_max:.9f}", f"{p.abs_theta_agent:.9f}", f"{p.abs_theta_neighbor:.9f}"]
            for p in points
        ),
    )


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> Path:
    """Write ``header`` and then ``rows`` to ``path`` as CSV, and return ``path``."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path
