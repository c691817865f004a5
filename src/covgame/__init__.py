"""Distributed optimal-coverage games with a satellite-constellation application.

The package models coverage maximization for a set of agents as an exact
potential game: the global objective (union coverage minus a scaled energy
penalty) moves by exactly each agent's local-objective change under unilateral
deviations, so a synchronous round engine in which only locally dominant
improvers update converges to an approximate equilibrium using neighbor
information only. The bundled application drives a circular low-Earth-orbit
constellation re-phasing itself to maximize ground-target visibility, together
with a centralized pattern-search baseline for comparison.
"""
from .game import (
    AgentSpec,
    CertificationReport,
    GameInstance,
    StrategyInterval,
    StrategyProfile,
    certify_epsilon_equilibrium,
    energy_penalty,
    global_value,
    local_value,
    neighbor_positions_from_reaches,
    regret,
)
from .harness import (
    ComparisonReport,
    run_centralized,
    run_distributed,
    sweep_energy_coefficient,
    sweep_satellite_count,
)
from .measure import TimeGrid, union_many
from .optimize import PatternSearchConfig, maximize_scalar, pattern_search
from .orbit import (
    ConstellationCoverage,
    ConstellationSpec,
    DriftRates,
    OrbitConstants,
    TargetSpec,
    build_constellation_game,
    drift_rates,
    geocentric_angle,
    satellite_position_ecf,
    target_position_ecf,
)
from .scenario import ScenarioConfig, ScenarioError, bundled_scenario_path, load_scenario
from .search import (
    AccessAudit,
    RoundTrace,
    SearchConfig,
    SearchResult,
    elect_innovators,
    iteration_bound,
    run_round,
    run_search,
)

__version__ = "0.1.0"

__all__ = [
    "AccessAudit",
    "AgentSpec",
    "CertificationReport",
    "ComparisonReport",
    "ConstellationCoverage",
    "ConstellationSpec",
    "DriftRates",
    "GameInstance",
    "OrbitConstants",
    "PatternSearchConfig",
    "RoundTrace",
    "ScenarioConfig",
    "ScenarioError",
    "SearchConfig",
    "SearchResult",
    "StrategyInterval",
    "StrategyProfile",
    "TargetSpec",
    "TimeGrid",
    "build_constellation_game",
    "bundled_scenario_path",
    "certify_epsilon_equilibrium",
    "drift_rates",
    "elect_innovators",
    "energy_penalty",
    "geocentric_angle",
    "global_value",
    "iteration_bound",
    "load_scenario",
    "local_value",
    "maximize_scalar",
    "neighbor_positions_from_reaches",
    "pattern_search",
    "regret",
    "run_centralized",
    "run_distributed",
    "run_round",
    "run_search",
    "satellite_position_ecf",
    "sweep_energy_coefficient",
    "sweep_satellite_count",
    "target_position_ecf",
    "union_many",
]
