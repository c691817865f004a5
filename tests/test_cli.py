"""Command-line interface: verbs, files, exit codes."""
import contextlib
import csv
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import warnings
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import covgame
from covgame import harness
from covgame.cli import main
from covgame.scenario import ScenarioConfig, bundled_scenario_path, parse_scenario

from conftest import CallCounter, mini_scenario_doc


def run_cli(*args):
    return main([str(a) for a in args])


class TestRunVerb:
    def test_run_both_writes_files_and_certifies(self, tmp_path, mini_scenario_file, capsys):
        out = tmp_path / "out"
        code = run_cli("run", "--scenario", mini_scenario_file, "--out", out)
        assert code == 0
        for name in ("comparison.csv", "trace.csv", "profile.csv", "summary.json"):
            assert (out / name).exists()
        assert (out / "profile_centralized.csv").exists()
        stdout = capsys.readouterr().out
        assert "distributed" in stdout

    def test_both_methods_share_one_game(self, tmp_path, mini_scenario_file, monkeypatch):
        builds = CallCounter(monkeypatch, ScenarioConfig, "build_game")
        code = run_cli("run", "--scenario", mini_scenario_file, "--out", tmp_path, "--quiet")
        assert code == 0
        assert builds.calls == 1

    def test_run_single_method_quiet(self, tmp_path, mini_scenario_file, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--scenario", mini_scenario_file, "--out", out,
            "--method", "distributed", "--quiet",
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert not (out / "profile_centralized.csv").exists()

    def test_run_override_flags(self, tmp_path, mini_scenario_file):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--scenario", mini_scenario_file, "--out", out,
            "--method", "distributed", "--epsilon", "0.5", "--max-iter", "8", "--quiet",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["epsilon_s"] == 0.5
        assert summary["max_rounds"] == 8

    def test_too_few_rounds_fails_certification_with_exit_two(
        self, tmp_path, mini_scenario_file
    ):
        # One round cannot reach the equilibrium from the nominal profile.
        code = run_cli(
            "run", "--scenario", mini_scenario_file, "--out", tmp_path / "out",
            "--method", "distributed", "--max-iter", "1", "--quiet",
        )
        assert code == 2

    def test_summary_says_why_each_method_stopped(self, tmp_path, mini_scenario_file):
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", mini_scenario_file, "--out", out, "--quiet") == 0
        methods = json.loads((out / "summary.json").read_text())["methods"]
        with (out / "trace.csv").open() as fh:
            last_round = list(csv.DictReader(fh))[-1]
        distributed = methods["distributed"]
        assert distributed["stop_reason"] == "converged"
        assert distributed["certified"] is True
        assert 0.0 <= distributed["worst_gain_s"] <= mini_scenario_doc()["search"]["epsilon_s"]
        assert distributed["last_max_regret_s"] == pytest.approx(
            float(last_round["max_regret_s"]), abs=1e-6
        )
        assert methods["centralized"]["stop_reason"] == "converged"
        assert methods["centralized"]["last_max_regret_s"] is None

    def test_summary_names_an_exhausted_budget(self, tmp_path):
        doc = mini_scenario_doc()
        doc["search"]["max_rounds"] = 1
        doc["centralized"]["max_evals"] = 3
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", path, "--out", out, "--quiet") == 2
        methods = json.loads((out / "summary.json").read_text())["methods"]
        distributed = methods["distributed"]
        assert distributed["stop_reason"] == "round budget exhausted"
        assert distributed["certified"] is False
        assert distributed["worst_gain_s"] > doc["search"]["epsilon_s"]
        assert distributed["last_max_regret_s"] > doc["search"]["epsilon_s"]
        assert methods["centralized"]["stop_reason"] == "evaluation budget exhausted"

    def test_missing_scenario_is_error_exit(self, tmp_path, capsys):
        code = run_cli("run", "--scenario", tmp_path / "nope.json", "--out", tmp_path)
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_usage_is_error_exit(self, capsys):
        assert run_cli("run", "--method", "nonsense") == 1

    def test_zero_width_strategy_bounds_certify_centralized(self, tmp_path, capsys):
        # A point strategy interval leaves nothing to scan; certification must
        # still run at a positive resolution.
        doc = mini_scenario_doc()
        doc["game"]["strategy_bounds_deg"] = [0, 0]
        path = tmp_path / "point.json"
        path.write_text(json.dumps(doc))
        code = run_cli(
            "run", "--scenario", path, "--out", tmp_path / "out", "--method", "centralized"
        )
        assert code == 0
        assert "certified=True" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("constellation", "semi_major_axis_km", float("nan")),
            # The mean motion's a ** 3 overflows.
            pytest.param(
                "constellation", "semi_major_axis_km", 1e300, id="semi_major_axis-huge"
            ),
            ("grid", "duration_s", float("inf")),
            ("game", "gamma", -5.0),
            pytest.param("constants", "j2", float("nan"), id="constants-j2-nan"),
            pytest.param(
                "constellation",
                "mean_anomalies_deg",
                [30.0 * k for k in range(11)] + [float("nan")],
                id="constellation-mean_anomalies_deg-item-nan",
            ),
            pytest.param(
                "game", "strategy_bounds_deg", [float("nan"), 15.0], id="bounds-item-nan"
            ),
            pytest.param(
                "game", "strategy_bounds_deg", [-200.0, 200.0], id="bounds-off-the-circle"
            ),
            pytest.param("game.theta_max", "value", float("nan"), id="theta_max-value-nan"),
            pytest.param(
                "game",
                "theta_max",
                {"unit": "radian", "values": [1.0] * 11 + [float("nan")]},
                id="theta_max-item-nan",
            ),
            pytest.param("centralized", "max_evals", "x", id="max_evals-x"),
            pytest.param("centralized", "step_shrink", float("inf"), id="step_shrink-inf"),
            # Both methods start from the zero profile, outside these bounds.
            pytest.param("game", "strategy_bounds_deg", [5.0, 10.0], id="bounds-above-0"),
            pytest.param("game", "strategy_bounds_deg", [-10.0, -5.0], id="bounds-below-0"),
            # The penalty of a 15 degree offset overflows.
            pytest.param("game.theta_max", "value", 1e-300, id="theta_max-value-tiny"),
            pytest.param(
                "game",
                "theta_max",
                {"unit": "radian", "values": [1.0] * 11 + [1e-300]},
                id="theta_max-item-tiny",
            ),
            # The round bound (phi_max - phi_min) / epsilon overflows.
            pytest.param("search", "epsilon_s", 5e-324, id="epsilon_s-subnormal"),
            # Limits that a constructor also enforces, named by the field.
            pytest.param("target", "view_half_angle_deg", 0, id="view_half_angle-zero"),
            pytest.param("target", "latitude_deg", 95, id="latitude-past-the-pole"),
            pytest.param("search", "epsilon_s", 0, id="epsilon_s-zero"),
            pytest.param("search", "max_rounds", 0, id="max_rounds-zero"),
            pytest.param("centralized", "max_evals", 0, id="max_evals-zero"),
            pytest.param("centralized", "step_shrink", 1.5, id="step_shrink-above-1"),
            pytest.param("centralized", "initial_step_deg", 0.001, id="initial_step-below-min"),
            pytest.param("constants", "mu_km3_s2", 0, id="mu-zero"),
            pytest.param("constants", "j2", -1e-3, id="j2-negative"),
        ],
    )
    def test_invalid_number_is_error_exit(self, tmp_path, capsys, section, key, value):
        doc = mini_scenario_doc()
        node = doc
        for part in section.split("."):
            node = node.setdefault(part, {})
        node[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity as JSON literals
        for verb in ("run", "bound"):
            code = run_cli(verb, "--scenario", path, "--out", tmp_path / "out", "--quiet")
            assert code == 1
            [line] = capsys.readouterr().err.splitlines()
            assert line.startswith(f"error: {section}.{key}")

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("target", "view_half_angle_deg", 181, "must lie in (0, 180], got 181.0"),
            ("target", "latitude_deg", -91, "must lie in [-90, 90], got -91.0"),
            ("centralized", "min_step_deg", 0, "must be positive, got 0.0"),
            (
                "centralized",
                "initial_step_deg",
                0.001,
                "must be at least min_step_deg (0.01), got 0.001",
            ),
        ],
    )
    def test_limit_is_stated_in_the_field_unit(
        self, tmp_path, capsys, section, key, value, message
    ):
        doc = mini_scenario_doc()
        doc[section][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("bound", "--scenario", path, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == f"error: {section}.{key}: {message}\n"

    @pytest.mark.parametrize(
        "section, key",
        [
            ("search", "epsilon"),  # a typo for epsilon_s
            ("centralized", "max_eval"),  # a typo for max_evals
            (None, "bogus"),
            ("constants", "mu"),
            ("constellation", "spacing_deg"),
            ("target", "longitude"),
            ("grid", "dt"),
            ("game", "gamma_s"),
            ("game.theta_max", "units"),
        ],
    )
    def test_unknown_field_is_error_exit(self, tmp_path, capsys, section, key):
        # A key that no parser reads is a typo or a setting that would be
        # silently dropped, so it is named and the run never starts.
        doc = mini_scenario_doc()
        node = doc
        for part in section.split(".") if section else ():
            node = node.setdefault(part, {})
        node[key] = 5.0
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc))
        field = key if section is None else f"{section}.{key}"
        for verb in ("run", "bound"):
            code = run_cli(verb, "--scenario", path, "--out", tmp_path / "out", "--quiet")
            assert code == 1
            assert capsys.readouterr().err == f"error: {field}: unknown field\n"
        assert not (tmp_path / "out").exists()

    def test_anomalies_and_spacing_together_are_error_exit(self, tmp_path, capsys):
        doc = mini_scenario_doc()
        assert "phase_spacing_deg" in doc["constellation"]
        doc["constellation"]["mean_anomalies_deg"] = [30.0 * k for k in range(12)]
        path = tmp_path / "both.json"
        path.write_text(json.dumps(doc))
        assert run_cli("bound", "--scenario", path) == 1
        assert capsys.readouterr().err == (
            "error: constellation: give either 'mean_anomalies_deg' or "
            "'phase_spacing_deg', not both\n"
        )

    @pytest.mark.parametrize("fault", ["missing", "list"])
    @pytest.mark.parametrize("section", ["constellation", "target", "grid", "game", "search"])
    def test_bad_required_section_names_the_section(self, tmp_path, capsys, section, fault):
        # A missing or non-object section is named by its field path, as
        # every other scenario error is, not by the file's name.
        doc = mini_scenario_doc()
        if fault == "missing":
            del doc[section]
        else:
            doc[section] = [doc[section]]
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(doc))
        code = run_cli("run", "--scenario", path, "--out", tmp_path / "out", "--quiet")
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {section}: ")

    def test_name_that_is_not_a_string_is_error_exit(self, tmp_path, capsys):
        doc = mini_scenario_doc()
        doc["name"] = {"a": 1}
        path = tmp_path / "named.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = run_cli("run", "--scenario", path, "--out", out, "--quiet")
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: name: expected a string"]
        assert not out.exists()

    def test_huge_penalty_scale_is_error_exit(self, tmp_path, capsys):
        # gamma 1e308 puts the lower objective envelope near -1.5e308, so the
        # round bound overflows.
        doc = json.loads(bundled_scenario_path().read_text())
        doc["game"]["gamma"] = 1e308
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for verb in ("run", "bound"):
            code = run_cli(verb, "--scenario", path, "--out", tmp_path / "out", "--quiet")
            assert code == 1
            [line] = capsys.readouterr().err.splitlines()
            assert line.startswith("error: ")

    def test_infinite_epsilon_is_error_exit(self, tmp_path, mini_scenario_file, capsys):
        # An infinite accuracy would certify any profile after one round.
        code = run_cli(
            "run", "--scenario", mini_scenario_file, "--out", tmp_path / "out",
            "--method", "distributed", "--max-iter", "1", "--epsilon", "inf", "--quiet",
        )
        assert code == 1
        assert "error: --epsilon: epsilon must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "bound", "certify"])
    def test_epsilon_whose_round_bound_overflows_writes_nothing(
        self, tmp_path, mini_scenario_file, capsys, verb
    ):
        # An override skips the parse-time check of search.epsilon_s, so the
        # round bound is checked when the override is applied, before any
        # solve or file.
        out = tmp_path / "out"
        profile = ["--profile", tmp_path / "profile.csv"] if verb == "certify" else []
        code = run_cli(
            verb, "--scenario", mini_scenario_file, "--out", out,
            "--epsilon", "5e-324", "--quiet", *profile,
        )
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: --epsilon: the round bound")
        assert not out.exists()

    def test_step_that_does_not_divide_the_horizon_is_error_exit(self, tmp_path, capsys):
        # 12000 s at 7 s would silently become 1714 cells, 11998 s.
        doc = mini_scenario_doc()
        doc["grid"]["step_s"] = 7.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = run_cli("run", "--scenario", path, "--out", tmp_path / "out", "--quiet")
        assert code == 1
        assert "error: grid.step_s" in capsys.readouterr().err

    def test_grid_that_does_not_fit_in_memory_is_error_exit(self, tmp_path):
        # 1e12 cells: the first array the coverage build allocates, over
        # every 64th cell, is 125 GB, far past the 1 GiB address space the
        # child allows itself, so it fails at once and nothing large is mapped.
        doc = mini_scenario_doc()
        doc["grid"] = {"duration_s": 1e12, "step_s": 1.0}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        limit = 1 << 30
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS="1",
            PYTHONPATH=str(Path(covgame.__file__).parents[1]),
        )
        done = subprocess.run(
            [sys.executable, "-m", "covgame", "run", "--scenario", str(path),
             "--out", str(tmp_path / "out"), "--quiet"],
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr == "error: grid: 1000000000000 cells do not fit in memory\n"


class TestSweepVerbs:
    def test_sweep_n_writes_rows(self, tmp_path, mini_scenario_file):
        out = tmp_path / "out"
        code = run_cli(
            "sweep-n", "--scenario", mini_scenario_file, "--out", out,
            "--counts", "4,6", "--quiet",
        )
        assert code == 0
        rows = harness.sweep_satellite_count(parse_scenario(mini_scenario_doc()), [4, 6])
        expected = harness.write_sweep_counts_csv(tmp_path / "expected", rows)

        def without_time(path):
            with path.open() as fh:
                return [{k: v for k, v in r.items() if k != "time_s"} for r in csv.DictReader(fh)]

        got = without_time(out / "sweep_counts.csv")
        assert len(got) == 4  # 2 methods x 2 counts
        assert got == without_time(expected)

    def test_sweep_energy_writes_rows(self, tmp_path, mini_scenario_file):
        out = tmp_path / "out"
        code = run_cli(
            "sweep-energy", "--scenario", mini_scenario_file, "--out", out,
            "--agent", "6", "--values", "0.01,0.02", "--quiet",
        )
        assert code == 0
        lines = (out / "sweep_energy.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_infinite_surplus_is_error_exit(self, tmp_path, mini_scenario_file, capsys):
        # A scenario's theta_max may not be Infinity, and neither may a swept one.
        out = tmp_path / "out"
        code = run_cli(
            "sweep-energy", "--scenario", mini_scenario_file, "--out", out,
            "--agent", "6", "--values", "0.01,inf", "--quiet",
        )
        assert code == 1
        assert "error: --values: theta_max must be positive and finite" in capsys.readouterr().err
        assert not (out / "sweep_energy.csv").exists()

    def test_surplus_whose_penalty_overflows_is_error_exit(
        self, tmp_path, mini_scenario_file, capsys
    ):
        # A swept surplus gets the penalty check of a scenario's theta_max,
        # so it fails before any solve: no overflow warning, no file.
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(
                "sweep-energy", "--scenario", mini_scenario_file, "--out", out,
                "--agent", "3", "--values", "0.01,1e-300", "--quiet",
            )
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: --values: theta_max of agent 3: too small")
        assert not out.exists()

    @pytest.mark.parametrize(
        "verb, flag, entries, message",
        [
            ("sweep-n", "--counts", "4,x", "invalid literal for int()"),
            ("sweep-n", "--counts", "4,0", "satellite count must be positive, got 0"),
            ("sweep-energy", "--values", "abc", "could not convert string to float"),
            ("sweep-n", "--counts", ",", "expected at least one"),
            ("sweep-energy", "--values", "", "expected at least one"),
        ],
        ids=[
            "count-not-an-integer", "count-zero", "value-not-a-number", "no-count", "no-value"
        ],
    )
    def test_bad_sweep_entry_names_the_flag_before_any_solve(
        self, tmp_path, mini_scenario_file, capsys, monkeypatch, verb, flag, entries, message
    ):
        # Every entry is parsed and checked before the first solve, so a bad
        # one anywhere in the list solves nothing and writes no file.
        solves = CallCounter(monkeypatch, harness, "run_distributed")
        out = tmp_path / "out"
        code = run_cli(
            verb, "--scenario", mini_scenario_file, "--out", out, flag, entries, "--quiet"
        )
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {flag}: ") and message in line
        assert solves.calls == 0
        assert not out.exists()


def write_profile(path, header, rows):
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


NOMINAL_ROWS = [f"{k},0.0,0.0" for k in range(1, 13)]


class TestCertifyVerb:
    def test_roundtrip_certifies_stored_profile(self, tmp_path, mini_scenario_file, capsys):
        out = tmp_path / "out"
        assert run_cli(
            "run", "--scenario", mini_scenario_file, "--out", out,
            "--method", "distributed", "--quiet",
        ) == 0
        code = run_cli(
            "certify", "--scenario", mini_scenario_file,
            "--profile", out / "profile.csv", "--quiet",
        )
        assert code == 0
        assert "certified" in capsys.readouterr().out

    def test_uncertifiable_profile_exits_two(self, tmp_path, mini_scenario_file, capsys):
        # The nominal profile is far from an equilibrium at a tight epsilon.
        profile = tmp_path / "profile.csv"
        rows = ["agent,theta_deg,energy_penalty"]
        rows += [f"{k},0.0,0.0" for k in range(1, 13)]
        profile.write_text("\n".join(rows) + "\n")
        code = run_cli(
            "certify", "--scenario", mini_scenario_file,
            "--profile", profile, "--epsilon", "0.1", "--quiet",
        )
        assert code == 2
        assert "not certified" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--epsilon", "epsilon must be positive and finite"),
        ],
    )
    def test_infinite_setting_is_error_exit(
        self, tmp_path, mini_scenario_file, capsys, flag, message
    ):
        # An infinite epsilon certified anything.
        profile = write_profile(
            tmp_path / "profile.csv", "agent,theta_deg,energy_penalty", NOMINAL_ROWS
        )
        code = run_cli(
            "certify", "--scenario", mini_scenario_file,
            "--profile", profile, flag, "inf", "--quiet",
        )
        assert code == 1
        assert f"error: {flag}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header, rows, message",
        [
            ("id,theta_deg", NOMINAL_ROWS, "missing column 'agent'"),
            ("agent,theta", NOMINAL_ROWS, "missing column 'theta_deg'"),
            (
                "agent,theta_deg,energy_penalty",
                NOMINAL_ROWS + ["3,5.0,0.0"],
                "line 14: agent 3 appears twice",
            ),
            (
                "agent,theta_deg,energy_penalty",
                NOMINAL_ROWS[:4],
                "no row for agents [5, 6, 7, 8, 9, 10, 11, 12]",
            ),
            (
                "agent,theta_deg,energy_penalty",
                NOMINAL_ROWS[:2] + ["3,nan,0.0"] + NOMINAL_ROWS[3:],
                "line 4: theta_deg nan is not finite",
            ),
            (
                "agent,theta_deg,energy_penalty",
                NOMINAL_ROWS[:2] + ["3,inf,0.0"] + NOMINAL_ROWS[3:],
                "line 4: theta_deg inf is not finite",
            ),
            (
                "agent,theta_rad,energy_penalty",
                NOMINAL_ROWS[:2] + ["3,-inf,0.0"] + NOMINAL_ROWS[3:],
                "line 4: theta_rad -inf is not finite",
            ),
            (
                "agent,theta_deg,energy_penalty",
                NOMINAL_ROWS[:4] + ["5,nan,0.0"] + NOMINAL_ROWS[5:],
                "line 6: theta_deg nan is not finite",
            ),
            (
                "agent,theta_deg,energy_penalty",
                NOMINAL_ROWS[:2] + ["3,20.0,0.0"] + NOMINAL_ROWS[3:],
                f"strategy {math.radians(20.0)} of agent 3 is outside",
            ),
        ],
        ids=[
            "no-agent-column",
            "no-theta-column",
            "repeated-agent",
            "missing-agents",
            "nan-strategy",
            "infinite-strategy",
            "negative-infinite-strategy",
            "nan-strategy-of-damaged-agent",
            "strategy-outside-interval",
        ],
    )
    def test_malformed_profile_is_error_exit(
        self, tmp_path, mini_scenario_file, capsys, header, rows, message
    ):
        profile = write_profile(tmp_path / "profile.csv", header, rows)
        code = run_cli(
            "certify", "--scenario", mini_scenario_file, "--profile", profile, "--quiet"
        )
        assert code == 1
        assert f"error: {profile}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["0.1", "1000"])
    def test_strategy_within_the_interval_slack_certifies_like_the_end(
        self, tmp_path, mini_scenario_file, capsys, epsilon
    ):
        # StrategyInterval.contains accepts a strategy up to 1e-12 rad past
        # an end of the interval; the coverage must give it an exact mask
        # rather than an error, and the verdict must match the end's.
        hi = parse_scenario(mini_scenario_doc()).strategy_space.hi
        outputs = []
        for theta in (hi, hi + 1e-13):
            degrees = repr(math.degrees(theta))
            assert (math.radians(float(degrees)) > hi) == (theta > hi)
            rows = [f"{k},{degrees if k == 4 else 0.0},0.0" for k in range(1, 13)]
            profile = write_profile(
                tmp_path / "profile.csv", "agent,theta_deg,energy_penalty", rows
            )
            code = run_cli(
                "certify", "--scenario", mini_scenario_file,
                "--profile", profile, "--epsilon", epsilon,
            )
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == (0 if epsilon == "1000" else 2)


class TestBoundVerb:
    def test_prints_bound(self, mini_scenario_file, capsys):
        assert run_cli("bound", "--scenario", mini_scenario_file) == 0
        out = capsys.readouterr().out
        assert "guaranteed convergence" in out

    def test_epsilon_override_changes_bound(self, mini_scenario_file, capsys):
        run_cli("bound", "--scenario", mini_scenario_file)
        first = capsys.readouterr().out
        run_cli("bound", "--scenario", mini_scenario_file, "--epsilon", "1.0")
        second = capsys.readouterr().out
        assert first != second


NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
# Edits of the bundled scenario: (section, or None at the top level; key;
# values), each valid or not.
SCENARIO_EDITS = {
    "bounds": (
        "game",
        "strategy_bounds_deg",
        st.lists(
            st.one_of(
                st.floats(-200.0, 200.0),
                st.sampled_from([0.0, -0.0, 180.0, -180.0, 5e-324, 1e-300]),
            ),
            min_size=2,
            max_size=2,
        ),
    ),
    "theta_max": (
        "game",
        "theta_max",
        st.fixed_dictionaries(
            {
                "unit": st.sampled_from(["radian", "degree"]),
                "value": st.one_of(
                    st.floats(0.0, 10.0),
                    # Down to the subnormals, where the penalty overflows.
                    st.floats(0.0, 1e-150),
                    st.sampled_from([5e-324, 1e-300, 1e-154, -1.0]),
                    NON_FINITE,
                ),
            }
        ),
    ),
    "view": (
        "target",
        "view_half_angle_deg",
        st.one_of(st.floats(-10.0, 200.0), st.sampled_from([0.0, 5e-324, 90.0, 180.0])),
    ),
    "inclination": (
        "constellation",
        "inclination_deg",
        st.one_of(st.floats(-400.0, 400.0), NON_FINITE),
    ),
    "latitude": (
        "target",
        "latitude_deg",
        st.one_of(st.floats(-100.0, 100.0), st.sampled_from([-90.0, 90.0])),
    ),
    # 7 s does not divide the horizon, and 50000 s leaves no cell.
    "step": (
        "grid",
        "step_s",
        st.one_of(st.floats(5.0, 600.0), st.sampled_from([0.0, -10.0, 7.0, 50000.0])),
    ),
    "damaged": (None, "damaged", st.lists(st.integers(-1, 14), max_size=12)),
    "epsilon": (
        "search",
        "epsilon_s",
        st.one_of(
            st.floats(0.0, 100.0), st.sampled_from([5e-324, 1e-300, 1e-12, -1.0]), NON_FINITE
        ),
    ),
    "max_rounds": ("search", "max_rounds", st.integers(-1, 30)),
    "max_evals": ("centralized", "max_evals", st.integers(-1, 300)),
}
SCENARIO_SECTIONS = "constants|constellation|target|grid|game|search|centralized|damaged"


@st.composite
def edited_scenarios(draw):
    """The bundled scenario at N <= 12 over 6 hours, with up to four random edits.

    At steps down to 5 s the grid has at most 4320 cells, and the
    centralized baseline at most 300 evaluations.
    """
    doc = json.loads(bundled_scenario_path().read_text())
    n = draw(st.integers(1, 12))
    doc["constellation"]["n_satellites"] = n
    doc["constellation"]["phase_spacing_deg"] = 360.0 / n
    doc["grid"] = {"duration_s": 21600.0, "step_s": 10.0}
    doc["damaged"] = [k for k in doc["damaged"] if k <= n]
    doc["centralized"]["max_evals"] = 200
    edits = draw(st.lists(st.sampled_from(sorted(SCENARIO_EDITS)), unique=True, max_size=4))
    for name in edits:
        section, key, values = SCENARIO_EDITS[name]
        (doc if section is None else doc[section])[key] = draw(values)
    return doc


def with_constants(**constants):
    """The bundled scenario at 4 satellites over 6 hours, with some constants set."""
    doc = json.loads(bundled_scenario_path().read_text())
    doc["constellation"].update(n_satellites=4, phase_spacing_deg=90.0)
    doc["grid"] = {"duration_s": 21600.0, "step_s": 10.0}
    doc["damaged"] = []
    doc["constants"] = constants
    return doc


def cli_outputs(*args):
    """Exit code, stdout, stderr and warnings of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(*args)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


class TestFuzzedScenarios:
    """Every edited scenario ends in a certificate or in ``error: <section>``."""

    @settings(max_examples=25, deadline=timedelta(seconds=10))
    @given(doc=edited_scenarios())
    # A mean motion that underflows to 0 left the summary's orbital period
    # dividing by zero, and a huge j2 overflowed the drift over the horizon.
    @example(doc=with_constants(mu_km3_s2=5e-324))
    @example(doc=with_constants(j2=1.257067561734933e307))
    def test_run_ends_in_a_certificate_or_a_field_error(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edited.json"
            path.write_text(json.dumps(doc))  # NaN and Infinity as JSON literals
            out = Path(tmp) / "out"
            code, stdout, stderr, caught = cli_outputs(
                "run", "--scenario", path, "--out", out, "--quiet"
            )
            assert code in (0, 1, 2)
            assert "Traceback" not in stdout + stderr
            assert not caught
            if code == 1:
                [line] = stderr.splitlines()
                assert re.match(rf"error: ({SCENARIO_SECTIONS})\b", line)
                return
            assert stderr == ""
            methods = json.loads((out / "summary.json").read_text())["methods"]
            assert code == (0 if methods["distributed"]["certified"] else 2)
            for method, name in (
                ("distributed", "profile.csv"),
                ("centralized", "profile_centralized.csv"),
            ):
                report = methods[method]
                code, stdout, stderr, caught = cli_outputs(
                    "certify", "--scenario", path, "--profile", out / name
                )
                assert (stderr, caught) == ("", [])
                assert code == (0 if report["certified"] else 2)
                gain = re.search(r"worst unilateral gain (\S+) s", stdout).group(1)
                assert gain == f"{report['worst_gain_s']:.6f}"
