from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

from covgame import harness
from covgame.scenario import parse_scenario

from perfbench import run
from perfbench.checks import check_distributed, check_value_gap
from perfbench.sample import run_sample
from perfbench.workloads import scenario_for

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_traced_sample_is_correct_and_reports_every_layer(tiny, tmp_path):
    result = run_sample(tiny, 5, [0], trace=True, work=tmp_path, traced_first=False)
    ops = result["ops"]
    assert len(ops) == 4 and all(op["failures"] == [] for op in ops)
    assert {op["digest"] for op in ops if op["method"] == "distributed"} == {ops[0]["digest"]}
    (layers,) = result["passes"]
    assert abs(layers["trace.unattributed_s"]) <= run.UNATTRIBUTED_SHARE * layers["trace.wall_s"]
    raw = {"setup_s": 1.0, "distributed_s": 1.0, "centralized_s": 1.0}
    out = run.layer_output(result["passes"], ops, 0.01, raw, 0.0, 0.0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in out.items()} == declared


def test_untraced_sample_reports_every_end_to_end_metric(tiny, tmp_path):
    result = run_sample(tiny, 5, [0, 1], trace=False, work=tmp_path, traced_first=False)
    assert len(result["ops"]) == 4 and all(op["failures"] == [] for op in result["ops"])
    assert result["rss_mb"] > 0 and result["emits"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert run.END_TO_END_UNITS == declared


def test_repeats_that_differ_are_failures():
    ops = [
        {"draw": 0, "method": "distributed", "digest": "a", "failures": []},
        {"draw": 0, "method": "distributed", "digest": "b", "failures": []},
        {"draw": 1, "method": "distributed", "digest": "b", "failures": []},
    ]
    run.cross_checks(ops, [])
    assert [bool(op["failures"]) for op in ops] == [False, True, False]


def test_checks_catch_a_broken_potential_identity_and_adjacent_innovators(tiny, tmp_path):
    cfg = parse_scenario(scenario_for(tiny, 5, 0))
    game = cfg.build_game()
    report, result = harness.run_distributed(cfg, game)
    assert check_distributed(cfg, game, report, result) == []
    first = result.traces[0]
    k = next(a for a in game.active_indices if game.neighbors(a))
    neighbor = min(game.neighbors(k))
    broken = dataclasses.replace(first, phi=first.phi + 1.0, innovators=(k, neighbor))
    doctored = dataclasses.replace(result, traces=(broken,) + result.traces[1:])
    failures = check_distributed(cfg, game, report, doctored)
    assert any("phi rose" in f for f in failures)
    assert any("are neighbors" in f for f in failures)
    assert check_value_gap(100.0, 101.0) == []
    assert check_value_gap(100.0, 103.0) != []


def test_run_refuses_a_directory_without_covgame_sources(tmp_path):
    root = Path(__file__).resolve().parents[2]
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-day", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
