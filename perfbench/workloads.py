"""Benchmark workloads and the seeded scenario generator.

Each workload is a scenario document (the JSON that ``covgame run
--scenario`` reads) plus how the benchmark samples and solves it. The
benchmark owns its base scenario, a copy of the bundled 24-satellite file, so
a later change to the bundled file does not silently move the benchmark.

``DEFAULT_SEED`` reproduces the documented inputs exactly. Any other seed
redraws, for every draw of a run, the damaged pair and the target longitude
and latitude inside bands around the defaults: wide enough that a claim can
be checked on inputs not used while it was written, narrow enough that run
time and coverage stay comparable across seeds.
"""
from __future__ import annotations

import copy
import random
from dataclasses import dataclass

DEFAULT_SEED = 20240815

DISTRIBUTED = "distributed"
CENTRALIZED = "centralized"

# Offset between the two damaged satellites of the default pair {10, 23}.
_DAMAGED_OFFSET = 13
# Largest relative gap between the distributed value and a full centralized
# run's value that the paper claims on its own inputs (acceptance criterion 5).
VALUE_GAP = 0.02
# Half-widths of the bands a non-default seed draws the target from, degrees.
LONGITUDE_BAND_DEG = 30.0
LATITUDE_BAND_DEG = 2.0

BASE_SCENARIO = {
    "name": "baseline-24sat",
    "constellation": {
        "n_satellites": 24,
        "semi_major_axis_km": 6896.27,
        "inclination_deg": 98.0,
        "raan_deg": 284.507,
        "greenwich_angle_deg": 284.507,
        "phase_spacing_deg": 15.0,
    },
    "target": {
        "longitude_deg": 121.3,
        "latitude_deg": 31.1,
        "view_half_angle_deg": 9.45,
    },
    "grid": {"duration_s": 86400.0, "step_s": 5.0},
    "game": {
        "gamma": 0.2,
        "strategy_bounds_deg": [-15.0, 15.0],
        "theta_max": {"unit": "radian", "value": 1.0},
    },
    "search": {
        "epsilon_s": 0.1,
        "max_rounds": 20,
        "scalar": {
            "coarse_points": 601,
            "refine_tolerance_deg": 0.005,
            "max_refine_iters": 64,
        },
    },
    "centralized": {
        "initial_step_deg": 3.75,
        "step_shrink": 0.5,
        "step_expand": 2.0,
        "min_step_deg": 0.002,
        "max_evals": 50000,
    },
    "damaged": [10, 23],
    "seed": DEFAULT_SEED,
}


@dataclass(frozen=True)
class Workload:
    """One benchmark input: scenario overrides and how a run solves it.

    ``centralized_budget`` caps the compass search's evaluations; ``None``
    runs it to its own stopping rule. ``block`` is how many draws one sample
    solves. Every draw gets a distributed solve; every ``centralized_every``-th
    one also a centralized solve. ``scaled`` says whether the reported times
    are scaled by the reference kernel.
    """

    name: str
    why: str
    n_satellites: int
    duration_s: float
    step_s: float
    centralized_budget: int | None
    block: int
    centralized_every: int = 1
    scaled: bool = True

    def methods_for(self, draw: int) -> tuple[str, ...]:
        if draw % self.centralized_every == 0:
            return (DISTRIBUTED, CENTRALIZED)
        return (DISTRIBUTED,)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-day",
            why="the paper's headline: bundled 24-satellite day at 5 s, both methods to completion",
            n_satellites=24,
            duration_s=86400.0,
            step_s=5.0,
            centralized_budget=None,
            block=12,
            centralized_every=2,
        ),
        Workload(
            name="long-horizon",
            why="7 days at 1 s: dense orbit kernel and mask-cache memory; no gating, round budget runs out",
            n_satellites=24,
            duration_s=7 * 86400.0,
            step_s=1.0,
            centralized_budget=48,
            block=1,
            scaled=False,
        ),
        Workload(
            name="wide-ring",
            why="240 satellites over 3 days at 2 s: degree-64 neighbor folds, O(N^2) graph, gated rounds",
            n_satellites=240,
            duration_s=3 * 86400.0,
            step_s=2.0,
            centralized_budget=48,
            block=1,
            scaled=False,
        ),
    )
}


def scenario_for(workload: str, seed: int, draw: int = 0) -> dict:
    """Scenario document number ``draw`` of ``workload`` under ``seed``.

    A run solves several draws so its medians average over inputs. The same
    ``(seed, draw)`` always gives the same document. Under ``DEFAULT_SEED``
    every draw is the documented input (for ``paper-day``, the bundled
    scenario itself, apart from its name).
    """
    w = WORKLOADS[workload]
    doc = copy.deepcopy(BASE_SCENARIO)
    doc["name"] = f"{w.name}-seed{seed}-draw{draw}"
    doc["seed"] = seed
    con = doc["constellation"]
    con["n_satellites"] = w.n_satellites
    con["phase_spacing_deg"] = 360.0 / w.n_satellites
    doc["grid"] = {"duration_s": w.duration_s, "step_s": w.step_s}
    if w.centralized_budget is not None:
        doc["centralized"]["max_evals"] = w.centralized_budget
    if seed != DEFAULT_SEED:
        # Every draw is independent, so a run's median averages over many
        # unrelated inputs. Low-discrepancy sequences from one start per
        # seed would correlate a run's draws, and their medians differed
        # more between seeds.
        rng = random.Random(f"{w.name}:{seed}:{draw}")
        first = rng.randrange(w.n_satellites)
        second = (first + _DAMAGED_OFFSET) % w.n_satellites
        doc["damaged"] = sorted([first + 1, second + 1])
        target = doc["target"]
        target["longitude_deg"] = round(
            target["longitude_deg"] + rng.uniform(-LONGITUDE_BAND_DEG, LONGITUDE_BAND_DEG), 6
        )
        target["latitude_deg"] = round(
            target["latitude_deg"] + rng.uniform(-LATITUDE_BAND_DEG, LATITUDE_BAND_DEG), 6
        )
    return doc
