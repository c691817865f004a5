"""Command-line interface.

One verb per experiment plus diagnostics:

    run           one scenario, distributed and/or centralized, CSVs out
    sweep-n       both methods across constellation sizes
    sweep-energy  distributed runs across one agent's energy surplus values
    certify       re-check a stored profile against the equilibrium criterion
    bound         print the guaranteed-convergence round count

Exit codes: 0 success (and certified, where applicable), 2 ran but the
certification failed, 1 error.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import harness
from .game import CoverCount, GameInstance, StrategyProfile, certify_epsilon_equilibrium
from .scenario import (
    ScenarioConfig,
    ScenarioError,
    bundled_scenario_path,
    load_scenario,
    tag_errors,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, 2 means uncertified
        self.print_usage(sys.stderr)
        raise SystemExit(self.prog + ": error: " + message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="covgame", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scenario",
            type=Path,
            default=None,
            help="scenario JSON (default: bundled 24-satellite baseline)",
        )
        p.add_argument("--out", type=Path, default=Path("results"), help="output directory")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    run = sub.add_parser("run", help="run one scenario and write comparison CSVs")
    common(run)
    run.add_argument(
        "--method",
        choices=["both", harness.DISTRIBUTED, harness.CENTRALIZED],
        default="both",
    )
    run.add_argument("--epsilon", type=float, default=None, help="override accuracy, seconds")
    run.add_argument("--max-iter", type=int, default=None, help="override round budget")

    sweep_n = sub.add_parser("sweep-n", help="both methods across constellation sizes")
    common(sweep_n)
    sweep_n.add_argument(
        "--counts", type=str, default="8,12,16,24", help="comma-separated sizes"
    )

    sweep_e = sub.add_parser(
        "sweep-energy", help="distributed runs across one agent's energy surplus"
    )
    common(sweep_e)
    sweep_e.add_argument("--agent", type=int, default=11, help="1-based agent index")
    sweep_e.add_argument(
        "--values",
        type=str,
        default="0.005,0.01,0.02,0.04,0.08,0.16",
        help="comma-separated surplus coefficients, radians",
    )

    certify = sub.add_parser("certify", help="re-certify a stored profile")
    common(certify)
    certify.add_argument("--profile", type=Path, required=True, help="profile.csv to check")
    certify.add_argument("--epsilon", type=float, default=None)

    bound = sub.add_parser("bound", help="print the guaranteed-convergence round count")
    common(bound)
    bound.add_argument("--epsilon", type=float, default=None)

    return parser


def _load(args: argparse.Namespace) -> ScenarioConfig:
    """The scenario with the command's overrides applied and checked.

    ``run``, ``bound`` and ``certify`` all load through here, so an override
    whose round bound is not finite fails each of them before any work.
    """
    path = args.scenario if args.scenario is not None else bundled_scenario_path()
    cfg = load_scenario(path)
    epsilon = getattr(args, "epsilon", None)
    max_iter = getattr(args, "max_iter", None)
    if epsilon is not None:
        cfg = tag_errors("--epsilon", cfg.with_search_overrides, epsilon=epsilon)
    if max_iter is not None:
        cfg = tag_errors("--max-iter", cfg.with_search_overrides, max_rounds=max_iter)
    return cfg


def _say(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load(args)
    game = cfg.build_game()
    reports = []
    traces = ()
    certified_flags = []
    if args.method in ("both", harness.DISTRIBUTED):
        _say(args, f"running distributed search on '{cfg.name}' ...")
        report, result = harness.run_distributed(cfg, game)
        reports.append(report)
        traces = result.traces
        certified_flags.append(report.certified)
        _say(
            args,
            f"  value {report.value:.1f} s in {report.wall_time:.2f} s, "
            f"converged at round "
            f"{'-' if report.converged_at is None else report.converged_at + 1}, "
            f"certified={report.certified}",
        )
    if args.method in ("both", harness.CENTRALIZED):
        _say(args, f"running centralized baseline on '{cfg.name}' ...")
        report, _ = harness.run_centralized(cfg, game)
        reports.append(report)
        if args.method == harness.CENTRALIZED:
            certified_flags.append(report.certified)
        _say(
            args,
            f"  value {report.value:.1f} s in {report.wall_time:.2f} s "
            f"({report.iterations} evaluations), certified={report.certified}",
        )
    written = harness.emit_results(args.out, cfg, reports, traces)
    _say(args, "wrote " + ", ".join(str(p) for p in written.values()))
    return 0 if all(certified_flags) else 2


def _entries(flag: str, text: str, convert: type) -> list:
    """The comma-separated entries of a sweep flag, converted; at least one."""
    entries = [tag_errors(flag, convert, e) for e in text.split(",") if e.strip()]
    if not entries:
        raise ScenarioError(f"{flag}: expected at least one comma-separated entry")
    return entries


def _cmd_sweep_n(args: argparse.Namespace) -> int:
    cfg = _load(args)
    counts = _entries("--counts", args.counts, int)
    # Every size is checked before the first solve.
    for n in counts:
        tag_errors("--counts", cfg.with_satellite_count, n)
    rows = harness.sweep_satellite_count(cfg, counts)
    for n, r in rows:
        _say(
            args,
            f"N={n} {r.method}: value {r.value:.1f} s in {r.wall_time:.2f} s, "
            f"certified={r.certified}",
        )
    path = harness.write_sweep_counts_csv(args.out, rows)
    _say(args, f"wrote {path}")
    distributed_certified = all(r.certified for _, r in rows if r.method == harness.DISTRIBUTED)
    return 0 if distributed_certified else 2


def _cmd_sweep_energy(args: argparse.Namespace) -> int:
    cfg = _load(args)
    values = _entries("--values", args.values, float)
    if not (1 <= args.agent <= cfg.n_satellites):
        raise ScenarioError(f"--agent: {args.agent} outside 1..{cfg.n_satellites}")
    for value in values:
        tag_errors("--values", cfg.with_theta_max, args.agent, value)
    points = harness.sweep_energy_coefficient(cfg, args.agent, values)
    path = harness.write_sweep_energy_csv(args.out, points)
    for p in points:
        _say(
            args,
            f"theta_max={p.theta_max:.4f}: |theta_{args.agent}|="
            f"{math.degrees(p.abs_theta_agent):.4f} deg, neighbor "
            f"{math.degrees(p.abs_theta_neighbor):.4f} deg",
        )
    _say(args, f"wrote {path}")
    return 0


def _read_profile_csv(path: Path, game: GameInstance) -> CoverCount:
    """The cover count of a stored ``profile.csv``; every fault names the file.

    The exact ``theta_rad`` column is read when present, else ``theta_deg``.
    Every strategy must be finite, and an active agent's must lie in its
    interval, which the cover count checks as the profile enters it.
    """
    theta = np.zeros(game.n_agents)
    seen: set[int] = set()
    with path.open() as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or ()
        column = "theta_rad" if "theta_rad" in fields else "theta_deg"
        for name in ("agent", column):
            if name not in fields:
                raise ValueError(f"{path}: missing column {name!r}")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            try:
                agent = int(row["agent"])
                value = float(row[column])
            except (TypeError, ValueError):
                raise ValueError(
                    f"{where}: expected an integer agent and a number {column}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(f"{where}: {column} {value} is not finite")
            if column == "theta_deg":
                value = math.radians(value)
            if not (1 <= agent <= game.n_agents):
                raise ValueError(f"{where}: agent {agent} outside 1..{game.n_agents}")
            if agent in seen:
                raise ValueError(f"{where}: agent {agent} appears twice")
            seen.add(agent)
            theta[agent - 1] = value
    missing = sorted(set(range(1, game.n_agents + 1)) - seen)
    if missing:
        raise ValueError(f"{path}: no row for agents {missing}")
    return tag_errors(str(path), CoverCount, game, StrategyProfile(theta))


def _cmd_certify(args: argparse.Namespace) -> int:
    cfg = _load(args)
    game = cfg.build_game()
    cover = _read_profile_csv(args.profile, game)
    epsilon = args.epsilon if args.epsilon is not None else cfg.search.epsilon
    report = certify_epsilon_equilibrium(game, cover, epsilon)
    _say(
        args,
        f"worst unilateral gain {report.worst_gain:.6f} s by agent "
        f"{report.worst_agent} (epsilon {epsilon} s)",
    )
    print("certified" if report.certified else "not certified")
    return 0 if report.certified else 2


def _cmd_bound(args: argparse.Namespace) -> int:
    cfg = _load(args)
    phi_min, phi_max = harness.assumption_envelopes(cfg)
    rounds = harness.round_bound(cfg)
    print(
        f"objective envelope [{phi_min:.3f}, {phi_max:.3f}] s, epsilon "
        f"{cfg.search.epsilon} s -> guaranteed convergence within {rounds} rounds"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "run": _cmd_run,
            "sweep-n": _cmd_sweep_n,
            "sweep-energy": _cmd_sweep_energy,
            "certify": _cmd_certify,
            "bound": _cmd_bound,
        }[args.command]
        return handler(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return 0 if exc.code is None else int(exc.code)
    except (ScenarioError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # A failed allocation is reported against the grid, whose cell count
        # sizes the coverage arrays; the scenario loaded before, so it loads
        # again to name that count.
        n_cells = _load(args).grid.n_steps
        print(f"error: grid: {n_cells} cells do not fit in memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
