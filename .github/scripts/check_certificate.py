"""Re-certify a run's profile with masks alone; exit 1 unless it matches.

Usage: python3 .github/scripts/check_certificate.py SCENARIO OUT_DIR METHOD

METHOD is ``distributed`` or ``centralized``. The exact ``theta_rad``
column of the method's profile in OUT_DIR (``profile.csv`` or
``profile_centralized.csv``) is re-certified on a game freshly built from
SCENARIO, without the engine's ``scan``, its counts or a cover count: each
active agent's local objective is scored with masks
(``best_response_objective``, the union of its neighbors' masks) at every
``lo`` and ``hi`` end of its segment table that lies in its strategy
interval, and at the point of the interval nearest 0. Those points hold an
exact maximizer (see ``best_response_gain``). The largest gain over the
incumbents, by ``repr``, must equal the method's ``worst_gain_s`` in
OUT_DIR's ``summary.json``, and ``certified`` must agree with it against
the summary's ``epsilon_s``.
"""
import csv
import json
import sys
from pathlib import Path

import numpy as np

from covgame.game import best_response_objective
from covgame.harness import DISTRIBUTED
from covgame.scenario import load_scenario


def main(scenario: str, out_dir: str, method: str) -> int:
    out = Path(out_dir)
    name = "profile.csv" if method == DISTRIBUTED else f"profile_{method}.csv"
    with (out / name).open() as fh:
        theta = np.array([float(row["theta_rad"]) for row in csv.DictReader(fh)])
    game = load_scenario(scenario).build_game()
    cov = game.coverage_fn
    worst = 0.0
    for k in game.active_indices:
        f, _ = best_response_objective(game, k, theta[game.neighbor_positions[k]])
        space = game.agent(k).strategy_space
        everywhere = np.ones(game.reach_positions[k].size, dtype=bool)
        ends = np.concatenate(cov.breakpoints(k, everywhere))
        points = ends[(ends >= space.lo) & (ends <= space.hi)].tolist()
        points.append(min(max(0.0, space.lo), space.hi))
        worst = max(worst, max(map(f, points)) - f(theta[k - 1]))
    with (out / "summary.json").open() as fh:
        summary = json.load(fh)
    reported = summary["methods"][method]
    certified = worst <= summary["epsilon_s"]
    if repr(float(worst)) != repr(reported["worst_gain_s"]) or certified != reported["certified"]:
        print(
            f"{method}: worst gain {float(worst)!r} (certified {certified}) from {name}, "
            f"summary worst_gain_s {reported['worst_gain_s']!r} "
            f"(certified {reported['certified']})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
