from __future__ import annotations

import json

import pytest
from covgame.scenario import bundled_scenario_path, parse_scenario

from perfbench.workloads import (
    BASE_SCENARIO,
    DEFAULT_SEED,
    LATITUDE_BAND_DEG,
    LONGITUDE_BAND_DEG,
    WORKLOADS,
    scenario_for,
)


def _without_name(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "name"}


def test_default_seed_paper_day_is_the_bundled_scenario():
    bundled = json.loads(bundled_scenario_path().read_text())
    for draw in range(3):
        assert _without_name(scenario_for("paper-day", DEFAULT_SEED, draw)) == _without_name(bundled)


def test_default_seed_long_workloads_only_resize_the_bundled_scenario():
    long = scenario_for("long-horizon", DEFAULT_SEED)
    assert long["grid"] == {"duration_s": 604800.0, "step_s": 1.0}
    assert long["constellation"]["n_satellites"] == 24
    wide = scenario_for("wide-ring", DEFAULT_SEED)
    assert wide["grid"] == {"duration_s": 259200.0, "step_s": 2.0}
    assert wide["constellation"]["n_satellites"] == 240
    assert wide["constellation"]["phase_spacing_deg"] == 1.5
    for doc in (long, wide):
        assert doc["damaged"] == [10, 23]
        assert doc["target"] == BASE_SCENARIO["target"]
        assert doc["centralized"]["max_evals"] == 48


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_and_draw_give_the_same_inputs(workload):
    assert scenario_for(workload, 7, 2) == scenario_for(workload, 7, 2)
    assert scenario_for(workload, 7, 2) != scenario_for(workload, 7, 3)
    assert scenario_for(workload, 7, 0) != scenario_for(workload, 8, 0)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_other_seeds_redraw_only_damaged_pair_and_target(workload):
    default = scenario_for(workload, DEFAULT_SEED)
    n = WORKLOADS[workload].n_satellites
    base = BASE_SCENARIO["target"]
    for seed in range(20):
        doc = scenario_for(workload, seed, seed % 3)
        changed = {k for k in doc if doc[k] != default[k]} - {"name", "seed"}
        assert changed <= {"damaged", "target"}
        first, second = doc["damaged"]
        assert 1 <= first < second <= n
        assert (second - first) % n in (13, n - 13)
        target = doc["target"]
        assert abs(target["longitude_deg"] - base["longitude_deg"]) <= LONGITUDE_BAND_DEG
        assert abs(target["latitude_deg"] - base["latitude_deg"]) <= LATITUDE_BAND_DEG
        assert target["view_half_angle_deg"] == base["view_half_angle_deg"]
        parse_scenario(doc)  # the program accepts every generated input
