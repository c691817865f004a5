"""Harness: method runs, sweeps, file emission, determinism."""
import csv
import hashlib
import json
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from covgame import harness
from covgame.game import GameInstance, StrategyProfile, global_value
from covgame.harness import (
    ComparisonReport,
    assumption_envelopes,
    emit_results,
    phase_linearity_residual,
    round_bound,
    run_centralized,
    run_distributed,
    sweep_energy_coefficient,
    sweep_satellite_count,
    write_sweep_counts_csv,
    write_sweep_energy_csv,
)
from covgame.orbit import ConstellationCoverage
from covgame.search import AccessAudit
from covgame.scenario import (
    ScenarioConfig,
    bundled_scenario_path,
    load_scenario,
    parse_scenario,
)

from conftest import CallCounter, mini_scenario_doc


class TestMethodRuns:
    def test_distributed_produces_certified_improvement(self, mini_cfg):
        report, result = run_distributed(mini_cfg)
        game = mini_cfg.build_game()
        baseline = global_value(game, StrategyProfile.zeros(mini_cfg.n_satellites))
        assert report.method == "distributed"
        assert report.value >= baseline
        assert report.certified
        assert report.converged_at is not None
        assert report.iterations == mini_cfg.search.max_rounds
        assert len(result.traces) == report.iterations

    def test_both_methods_report_through_the_same_objective(self, mini_cfg):
        # The distributed value is read off the run's cover count, the
        # centralized one through global_value. Re-evaluating each reported
        # profile through global_value, on a freshly built game that no run
        # has touched, reproduces the reported value bit for bit, on the
        # mini scenario and the bundled day.
        bundled = load_scenario(bundled_scenario_path())
        reports = [
            run_distributed(mini_cfg)[0],
            run_centralized(mini_cfg)[0],
            run_distributed(bundled)[0],
        ]
        for cfg, report in zip((mini_cfg, mini_cfg, bundled), reports):
            profile = StrategyProfile(np.array(report.final_theta))
            assert global_value(cfg.build_game(), profile).hex() == report.value.hex()

    def test_distributed_run_builds_no_mask(self):
        # The bundled week at 1 s: 74,886 cells. The engine keeps one count
        # and reads covered positions, so the run memoizes no mask, and its
        # memory above the built game peaks well below the 8.6 MB it took
        # while the count was built and moved by masks.
        doc = json.loads(bundled_scenario_path().read_text())
        doc["grid"] = {"duration_s": 604800.0, "step_s": 1.0}
        cfg = parse_scenario(doc)
        game = cfg.build_game()
        tracemalloc.start()
        try:
            run_distributed(cfg, game)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert game._coverage_cache == {}
        assert peak <= 6e6, f"peak {peak} B"

    def test_second_run_on_one_game_scans_as_the_first(self, monkeypatch):
        # A run keeps its best-response memo in its own cover count, so a
        # second run on the same game finds nothing the first left behind:
        # it selects rows as often, and reaches the same outcome.
        cfg = load_scenario(bundled_scenario_path())
        game = cfg.build_game()
        scans = CallCounter(monkeypatch, ConstellationCoverage, "breakpoints")
        runs = []
        for _ in range(2):
            before = scans.calls
            report, result = run_distributed(cfg, game)
            traces = [replace(t, wall_time=0.0) for t in result.traces]
            runs.append((scans.calls - before, replace(report, wall_time=0.0), traces))
        assert runs[0][0] == 53
        assert runs[0] == runs[1]

    def test_both_methods_on_one_game_match_fresh_games(self, mini_cfg):
        # The distributed run leaves the game's mask memo empty, so the
        # centralized run on the same game starts as it would on a fresh one.
        game = mini_cfg.build_game()
        shared = [run_distributed(mini_cfg, game)[0]]
        assert game._coverage_cache == {}
        shared.append(run_centralized(mini_cfg, game)[0])
        fresh = [run_distributed(mini_cfg)[0], run_centralized(mini_cfg)[0]]
        for a, b in zip(shared, fresh):
            assert replace(a, wall_time=0.0) == replace(b, wall_time=0.0)
            assert [v.hex() for v in a.final_theta] == [v.hex() for v in b.final_theta]

    def test_damaged_strategies_stay_zero(self, mini_cfg):
        report, _ = run_distributed(mini_cfg)
        for k in mini_cfg.damaged:
            assert report.final_theta[k - 1] == 0.0

    def test_rerun_is_bitwise_identical_except_clock(self, mini_cfg):
        first, _ = run_distributed(mini_cfg)
        second, _ = run_distributed(mini_cfg)
        assert first.value == second.value
        assert first.final_theta == second.final_theta
        assert first.converged_at == second.converged_at
        c_first, _ = run_centralized(mini_cfg)
        c_second, _ = run_centralized(mini_cfg)
        assert c_first.value == c_second.value
        assert c_first.final_theta == c_second.final_theta

    def test_all_damaged_yields_zero_for_both_methods(self, mini_cfg):
        doc = mini_scenario_doc()
        doc["damaged"] = list(range(1, 13))
        cfg = parse_scenario(doc)
        rd, _ = run_distributed(cfg)
        rc, _ = run_centralized(cfg)
        assert rd.value == 0.0 and rc.value == 0.0
        assert all(t == 0.0 for t in rd.final_theta)
        assert all(t == 0.0 for t in rc.final_theta)

    def test_single_satellite_methods_agree(self):
        doc = mini_scenario_doc()
        doc["constellation"]["n_satellites"] = 1
        doc["constellation"]["phase_spacing_deg"] = 0.0
        doc["damaged"] = []
        cfg = parse_scenario(doc)
        rd, _ = run_distributed(cfg)
        rc, _ = run_centralized(cfg)
        assert rd.value == pytest.approx(rc.value, abs=0.5)
        assert abs(rd.final_theta[0] - rc.final_theta[0]) < 0.02

    def test_certificate_after_polish_scans_nothing(self, mini_cfg, monkeypatch):
        # The polish ends with a sweep in which no agent moved, against the
        # very neighbor strategies the certificate reads, so every agent
        # reuses its answer: it selects no rows (calls no breakpoints).
        scans = CallCounter(monkeypatch, ConstellationCoverage, "breakpoints")
        polish = harness._polish
        polished = []

        def marked(*args):
            profile = polish(*args)
            polished.append(scans.calls)
            return profile

        monkeypatch.setattr(harness, "_polish", marked)
        report, certification = run_centralized(mini_cfg)
        assert report.certified and len(certification.gains) == 11
        assert polished[0] > 0 and scans.calls == polished[0]


# The bundled run at the commit that pinned it. A change that claims only
# speed must leave every bit of it alone.
BUNDLED_DISTRIBUTED_THETA = [
    "-0x1.b78af1243a2f0p-5", "0x1.2d00193bb5680p-9", "0x1.e434d6f5689acp-6",
    "0x0.0p+0", "-0x1.82d892acc0680p-10", "0x0.0p+0", "0x0.0p+0",
    "0x1.4e0454d05dd28p-6", "0x1.6f046312bd928p-6", "0x0.0p+0",
    "-0x1.64d670562b85ap-3", "-0x1.0b445c22205a1p-3", "-0x1.04a35c4a3532bp-4",
    "0x0.0p+0", "0x1.9287a9df5c3ecp-5", "0x1.4885aeb2c2eccp-5",
    "0x1.8120020cc5188p-7", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
    "-0x1.fcdcaf213bb1cp-6", "0x1.7e3b68a4f10e0p-9", "0x0.0p+0",
    "-0x1.923f5cc870245p-3",
]
BUNDLED_CENTRALIZED_THETA = [
    "0x1.2d7092a1c4e00p-12", "0x1.b3fc96d0fd0f0p-5", "0x1.e434d6f5689acp-6",
    "0x0.0p+0", "-0x1.b045cc20d5328p-7", "-0x1.c1a93a05d89c0p-8", "0x0.0p+0",
    "0x1.dd316417e4430p-7", "0x1.75cc1700bb9e0p-7", "0x0.0p+0",
    "-0x1.7aeb67247cb49p-3", "-0x1.0b445c22205a1p-3", "-0x1.04a35c4a3532bp-4",
    "0x0.0p+0", "0x1.9287a9df5c3ecp-5", "0x1.4885aeb2c2eccp-5",
    "0x1.8120020cc5188p-7", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
    "0x1.e35b255060060p-6", "0x1.5a8b46e30975ap-4", "0x0.0p+0",
    "-0x1.0fed031099f1cp-4",
]
# sha256 over every round of the bundled distributed run, as hashed below.
BUNDLED_TRACE_SHA256 = "eb0d5cb478885b3c285904ff88274e88d4a07f4e65b267b484938685f17338e8"
# sha256 over the repr of every cross-agent read of that run, in order.
BUNDLED_AUDIT_SHA256 = "2287741b957a30d32ccbb42a904005aa1bc8ddd57330cb1eb7836861666fd1da"
# The same over the reads sorted, which no order of recording moves.
BUNDLED_AUDIT_SORTED_SHA256 = "18bb34f196681b09e3a1457055aaa533cad7148598be57957866c2d9f3c7c2d3"


def test_bundled_outcome_is_pinned(monkeypatch):
    cfg = load_scenario(bundled_scenario_path())
    audit = AccessAudit()
    scans = CallCounter(monkeypatch, ConstellationCoverage, "breakpoints")
    counts = CallCounter(monkeypatch, ConstellationCoverage, "masked_cell_counts")
    masks = CallCounter(monkeypatch, GameInstance, "coverage")
    positions = CallCounter(monkeypatch, ConstellationCoverage, "covered_positions")
    distributed, result = run_distributed(cfg, audit=audit)
    # Rows selected, certificate included: 100 before an agent kept its
    # answer while its uncovered cells stood still.
    assert scans.calls == 53
    # 224 counts and 176 mask reads before an incumbent at its stored
    # maximizer went uncounted and an agent standing still kept the gather
    # of its own mask; 111 mask reads before the engine read covered
    # positions in place of masks; 112 counts before a scan counted its
    # candidates itself, so that only incumbents are counted.
    assert (counts.calls, masks.calls) == (59, 0)
    # One per active agent for the count's build and one per adoption: the
    # cover count keeps each agent's positions, which its incumbent reads and
    # its next adoption starts from.
    assert positions.calls == 22 + sum(len(t.innovators) for t in result.traces) == 38
    rounds = [
        (
            t.iteration,
            t.phi.hex(),
            t.innovators,
            sorted((k, r.hex()) for k, r in t.regrets.items()),
            sorted(t.zetas.items()),
        )
        for t in result.traces
    ]
    assert len(rounds) == 20
    assert hashlib.sha256(repr(rounds).encode()).hexdigest() == BUNDLED_TRACE_SHA256
    assert Counter(kind for _, _, kind in audit.reads) == {"theta": 820, "regret": 324}
    assert hashlib.sha256(repr(sorted(audit.reads)).encode()).hexdigest() == (
        BUNDLED_AUDIT_SORTED_SHA256
    )
    assert hashlib.sha256(repr(audit.reads).encode()).hexdigest() == BUNDLED_AUDIT_SHA256
    centralized, _ = run_centralized(cfg)
    assert distributed.value.hex() == "0x1.2317d71c756afp+13"
    assert distributed.converged_at == 7
    assert [v.hex() for v in distributed.final_theta] == BUNDLED_DISTRIBUTED_THETA
    assert centralized.value.hex() == "0x1.229fe0cc2e6e2p+13"
    assert centralized.iterations == 7085
    assert [v.hex() for v in centralized.final_theta] == BUNDLED_CENTRALIZED_THETA
    assert distributed.worst_gain == centralized.worst_gain == 0.0


class TestBound:
    def test_envelopes_and_bound(self, mini_cfg):
        phi_min, phi_max = assumption_envelopes(mini_cfg)
        assert phi_max == mini_cfg.grid.duration
        worst = 15.0 * math.pi / 180.0
        expected_min = -0.2 * 11 * worst**2  # 11 active agents
        assert phi_min == pytest.approx(expected_min)
        assert round_bound(mini_cfg) == math.floor((phi_max - phi_min) / 0.1) + 1

    def test_run_converges_far_below_bound(self, mini_cfg):
        report, _ = run_distributed(mini_cfg)
        assert report.converged_at + 1 <= mini_cfg.search.max_rounds
        assert report.converged_at + 1 < round_bound(mini_cfg)


class TestSweeps:
    def test_count_sweep_rows(self, mini_cfg):
        rows = sweep_satellite_count(mini_cfg, [4, 6])
        assert [n for n, _ in rows] == [4, 4, 6, 6]
        methods = [r.method for _, r in rows]
        assert methods == ["distributed", "centralized"] * 2

    def test_count_sweep_builds_one_game_per_size(self, mini_cfg, monkeypatch):
        builds = CallCounter(monkeypatch, ScenarioConfig, "build_game")
        sweep_satellite_count(mini_cfg, [4, 6])
        assert builds.calls == 2

    def test_count_sweep_empty(self, mini_cfg):
        assert sweep_satellite_count(mini_cfg, []) == []

    def test_energy_sweep_single_value(self, mini_cfg):
        points = sweep_energy_coefficient(mini_cfg, 6, [0.01])
        assert len(points) == 1
        assert points[0].theta_max == 0.01

    def test_energy_sweep_tiny_surplus_pins_agent_home(self, mini_cfg):
        points = sweep_energy_coefficient(mini_cfg, 6, [1e-5])
        assert points[0].abs_theta_agent < 1e-3

    def test_energy_sweep_validates_agent(self, mini_cfg):
        with pytest.raises(ValueError):
            sweep_energy_coefficient(mini_cfg, 99, [0.1])


class TestEmission:
    def test_empty_reports_write_headers_only(self, tmp_path, mini_cfg):
        written = emit_results(tmp_path, mini_cfg, [], [])
        comparison = (tmp_path / "comparison.csv").read_text().strip().splitlines()
        assert comparison == ["method,value_s,time_s,iters,certified"]
        trace = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert trace == ["iter,phi_s,n_innovators,max_regret_s,wall_time_s"]
        assert json.loads(written["summary"].read_text())["scenario"] == mini_cfg.name

    def test_full_emission_schema(self, tmp_path, mini_cfg):
        rd, result = run_distributed(mini_cfg)
        rc, _ = run_centralized(mini_cfg)
        written = emit_results(tmp_path, mini_cfg, [rd, rc], result.traces)
        with (tmp_path / "comparison.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["distributed", "centralized"]
        with (tmp_path / "trace.csv").open() as fh:
            trace_rows = list(csv.DictReader(fh))
        assert len(trace_rows) == len(result.traces)
        assert float(trace_rows[0]["phi_s"]) <= float(trace_rows[-1]["phi_s"])
        with (tmp_path / "profile.csv").open() as fh:
            profile_rows = list(csv.DictReader(fh))
        assert len(profile_rows) == mini_cfg.n_satellites
        assert {"agent", "theta_deg", "energy_penalty", "theta_rad"} <= set(profile_rows[0])
        assert tuple(float(row["theta_rad"]) for row in profile_rows) == rd.final_theta
        summary = json.loads(written["summary"].read_text())
        assert summary["bound"]["rounds"] == round_bound(mini_cfg)
        assert summary["methods"]["distributed"]["certified"] is True
        for method, report in (("distributed", rd), ("centralized", rc)):
            assert summary["methods"][method]["worst_gain_s"] == report.worst_gain
        assert "phase_linearity_residual_rad" in summary["methods"]["distributed"]

    def test_summary_reports_actual_vs_bound_rounds(self, tmp_path, mini_cfg):
        rd, result = run_distributed(mini_cfg)
        emit_results(tmp_path, mini_cfg, [rd], result.traces)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["methods"]["distributed"]["iterations"] <= summary["bound"]["rounds"]

    def test_sweep_csv_writers(self, tmp_path):
        rows = [
            (4, ComparisonReport("distributed", 1.0, 0.1, 3, True, 0.0, (0.0,) * 4)),
        ]
        path = write_sweep_counts_csv(tmp_path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "N,method,value_s,time_s,iters,certified"
        assert lines[1].startswith("4,distributed,")
        from covgame.harness import EnergySweepPoint

        epath = write_sweep_energy_csv(tmp_path, [EnergySweepPoint(0.1, 0.2, 0.05)])
        elines = epath.read_text().strip().splitlines()
        assert elines[0] == "theta_max,abs_theta_k,abs_theta_neighbor"

    def test_phase_linearity_residual_zero_for_linear(self):
        m0 = [k * 0.5 for k in range(6)]
        theta = [0.0] * 6
        assert phase_linearity_residual(theta, m0, range(1, 7)) == pytest.approx(0.0, abs=1e-12)
