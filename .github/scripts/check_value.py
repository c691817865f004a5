"""Recompute a run's value from the profile it wrote; exit 1 unless it matches.

Usage: python3 .github/scripts/check_value.py SCENARIO OUT_DIR METHOD

METHOD is ``distributed`` or ``centralized``. The exact ``theta_rad``
column of the method's profile in OUT_DIR (``profile.csv`` or
``profile_centralized.csv``) is scored by ``global_value`` on a game freshly
built from SCENARIO, with masks, independently of the run's live cover
count. Its ``repr`` must equal that of the method's ``value_s`` in OUT_DIR's
``summary.json``, so a value that moved by one ulp fails.
"""
import csv
import json
import sys
from pathlib import Path

from covgame.game import StrategyProfile, global_value
from covgame.harness import DISTRIBUTED
from covgame.scenario import load_scenario


def main(scenario: str, out_dir: str, method: str) -> int:
    out = Path(out_dir)
    name = "profile.csv" if method == DISTRIBUTED else f"profile_{method}.csv"
    with (out / name).open() as fh:
        theta = [float(row["theta_rad"]) for row in csv.DictReader(fh)]
    value = global_value(load_scenario(scenario).build_game(), StrategyProfile(theta))
    with (out / "summary.json").open() as fh:
        reported = json.load(fh)["methods"][method]["value_s"]
    if repr(value) != repr(reported):
        print(
            f"{method}: global_value {value!r} from {name}, summary value_s {reported!r}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
