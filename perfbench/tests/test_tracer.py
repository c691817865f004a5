from __future__ import annotations

import importlib
import json
import sys
import time

import pytest
from covgame import harness, scenario

from perfbench.sample import outcome_digest
from perfbench.tracer import SPANS, Tracer
from perfbench.workloads import scenario_for


def _snapshot() -> dict:
    """Every attribute of every covgame module and class, by identity."""
    snap = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "covgame" or name.startswith("covgame.")):
            continue
        for attr, value in vars(module).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    snap[(name, attr, cattr)] = cvalue
    return snap


def _assert_same(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def _solve(path, method):
    t0 = time.perf_counter()
    cfg = scenario.load_scenario(path)
    game = cfg.build_game()
    if method == "distributed":
        report, detail = harness.run_distributed(cfg, game)
    else:
        report, detail = harness.run_centralized(cfg, game)
    return report, detail, time.perf_counter() - t0


@pytest.fixture
def tiny_path(tiny, tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(scenario_for(tiny, 11, 0)))
    return path


def test_every_span_target_exists():
    for module_name, path, _ in SPANS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner)


def test_wrappers_restore_every_patched_attribute(tiny_path):
    before = _snapshot()
    tracer = Tracer()
    with tracer:
        assert _snapshot() != before
        _solve(tiny_path, "distributed")
    _assert_same(before, _snapshot())
    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("boom")
    _assert_same(before, _snapshot())


@pytest.mark.parametrize("method", ["distributed", "centralized"])
def test_traced_outputs_are_bit_identical(tiny_path, method):
    plain = outcome_digest(method, *_solve(tiny_path, method)[:2])
    with Tracer():
        traced = outcome_digest(method, *_solve(tiny_path, method)[:2])
    assert traced == plain


def test_self_times_account_for_all_traced_time(tiny_path):
    tracer = Tracer()
    walls = 0.0
    with tracer:
        for method in ("distributed", "centralized"):
            walls += _solve(tiny_path, method)[2]
    stats = tracer.stats
    assert stats["harness.distributed"].calls == 1
    assert stats["orbit.scan"].calls > 0 and stats["measure.union"].counters["rows"] > 0
    assert all(s.self_s >= 0.0 and s.self_s <= s.total_s + 1e-12 for s in stats.values())
    roots = sum(
        stats[name].total_s
        for name in ("scenario.load", "scenario.build_game", "harness.distributed", "harness.centralized")
    )
    assert tracer.attributed_s() == pytest.approx(roots, rel=1e-9)
    assert 0.0 <= walls - tracer.attributed_s() <= 0.01 * walls
