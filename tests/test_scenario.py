"""Scenario parsing: unit conversion, validation messages, derived configs."""
import json
import math

import pytest

from covgame.optimize import PatternSearchConfig
from covgame.scenario import (
    ScenarioError,
    bundled_scenario_path,
    load_scenario,
    parse_scenario,
)

from conftest import mini_scenario_doc

DEG = math.pi / 180.0


class TestBundledScenario:
    def test_matches_reference_setup(self):
        # Every row of the default experiment's parameter table, converted.
        cfg = load_scenario(bundled_scenario_path())
        assert cfg.n_satellites == 24
        assert cfg.search.epsilon == 0.1
        assert cfg.search.max_rounds == 20
        assert cfg.gamma == 0.2
        assert cfg.grid.duration == 86400.0
        assert cfg.grid.dt == 5.0
        assert cfg.constellation.semi_major_axis == 6896.27
        assert cfg.constellation.inclination == pytest.approx(98.0 * DEG)
        assert cfg.constellation.raan0 == pytest.approx(284.507 * DEG)
        assert cfg.constellation.greenwich_angle0 == pytest.approx(284.507 * DEG)
        assert cfg.target.longitude == pytest.approx(121.3 * DEG)
        assert cfg.target.latitude == pytest.approx(31.1 * DEG)
        assert cfg.target.view_half_angle == pytest.approx(9.45 * DEG)
        assert cfg.strategy_space.lo == pytest.approx(-15.0 * DEG)
        assert cfg.strategy_space.hi == pytest.approx(15.0 * DEG)
        assert cfg.theta_max == (1.0,) * 24  # radians
        assert cfg.constellation.mean_anomalies0[1] == pytest.approx(15.0 * DEG)
        assert cfg.damaged == (10, 23)

    def test_damaged_pair_is_the_default_experiment(self):
        cfg = load_scenario(bundled_scenario_path())
        assert cfg.damaged == (10, 23)


class TestParsing:
    def test_theta_max_unit_required(self):
        doc = mini_scenario_doc()
        del doc["game"]["theta_max"]["unit"]
        with pytest.raises(ScenarioError, match="theta_max.unit"):
            parse_scenario(doc)

    def test_theta_max_degree_unit_converts(self):
        doc = mini_scenario_doc()
        doc["game"]["theta_max"] = {"unit": "degree", "value": 45.0}
        cfg = parse_scenario(doc)
        assert cfg.theta_max[0] == pytest.approx(math.pi / 4.0)

    def test_theta_max_per_agent_values(self):
        doc = mini_scenario_doc()
        doc["game"]["theta_max"] = {"unit": "radian", "values": [0.5] * 12}
        assert parse_scenario(doc).theta_max == (0.5,) * 12

    def test_theta_max_values_length_checked(self):
        doc = mini_scenario_doc()
        doc["game"]["theta_max"] = {"unit": "radian", "values": [0.5] * 3}
        with pytest.raises(ScenarioError, match="theta_max.values"):
            parse_scenario(doc)

    def test_missing_field_reports_path(self):
        doc = mini_scenario_doc()
        del doc["grid"]["step_s"]
        with pytest.raises(ScenarioError, match="grid.step_s"):
            parse_scenario(doc)

    def test_damaged_indices_validated(self):
        doc = mini_scenario_doc()
        doc["damaged"] = [99]
        with pytest.raises(ScenarioError, match="damaged"):
            parse_scenario(doc)
        doc["damaged"] = [3, 3]
        with pytest.raises(ScenarioError, match="damaged: expected a list of distinct"):
            parse_scenario(doc)

    def test_explicit_mean_anomalies_override_spacing(self):
        doc = mini_scenario_doc()
        doc["constellation"]["n_satellites"] = 2
        # Explicit anomalies stand in place of the spacing; both together
        # are an error (test_cli.py).
        del doc["constellation"]["phase_spacing_deg"]
        doc["constellation"]["mean_anomalies_deg"] = [10.0, 200.0]
        doc["game"]["theta_max"] = {"unit": "radian", "value": 1.0}
        doc["damaged"] = []
        cfg = parse_scenario(doc)
        assert cfg.constellation.mean_anomalies0 == pytest.approx((10.0 * DEG, 200.0 * DEG))

    def test_constants_overridable(self):
        doc = mini_scenario_doc()
        doc["constants"] = {"mu_km3_s2": 400000.0}
        cfg = parse_scenario(doc)
        assert cfg.constants.mu == 400000.0
        assert cfg.constants.j2 == pytest.approx(1.08262668e-3)

    def test_optional_blocks_default(self):
        doc = mini_scenario_doc()
        del doc["centralized"], doc["search"]["scalar"]
        cfg = parse_scenario(doc)
        assert cfg.centralized == PatternSearchConfig(
            initial_step=3.75 * DEG, min_step=0.01 * DEG, max_evals=20000
        )

    def test_scalar_block_is_ignored(self):
        # The bundled scenario and the benchmark's still carry this block
        # and a top-level seed; whatever they hold, they tune nothing.
        doc = mini_scenario_doc()
        doc["search"]["scalar"] = {"coarse_points": 3.7, "refine_tolerance_deg": "x"}
        assert "seed" in doc
        bare = mini_scenario_doc()
        del bare["search"]["scalar"], bare["seed"]
        assert parse_scenario(doc) == parse_scenario(bare)

    @pytest.mark.parametrize("section", ["constants", "grid", "centralized"])
    def test_section_must_be_an_object(self, section):
        doc = mini_scenario_doc()
        doc[section] = 5
        with pytest.raises(ScenarioError, match=f"{section}: expected an object"):
            parse_scenario(doc)

    def test_orbit_below_surface_rejected(self):
        doc = mini_scenario_doc()
        doc["constellation"]["semi_major_axis_km"] = 1000.0
        with pytest.raises(ScenarioError, match="above the Earth"):
            parse_scenario(doc)

    def test_file_errors(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(bad)

    def test_load_roundtrip(self, mini_scenario_file):
        cfg = load_scenario(mini_scenario_file)
        assert cfg.name == "mini-12sat"  # document name wins over the file stem
        assert cfg.n_satellites == 12


class TestDerivedConfigs:
    def test_with_satellite_count_respaces_and_filters_damage(self, mini_cfg):
        small = mini_cfg.with_satellite_count(4)
        assert small.n_satellites == 4
        assert small.constellation.mean_anomalies0 == pytest.approx(
            tuple(k * math.pi / 2.0 for k in range(4))
        )
        assert small.damaged == ()  # damaged 5 dropped
        bigger = mini_cfg.with_satellite_count(8)
        assert bigger.damaged == (5,)

    def test_with_theta_max_replaces_one_agent(self, mini_cfg):
        bumped = mini_cfg.with_theta_max(3, 0.25)
        assert bumped.theta_max[2] == 0.25
        assert bumped.theta_max[0] == mini_cfg.theta_max[0]

    def test_with_theta_max_validates(self, mini_cfg):
        with pytest.raises(ScenarioError):
            mini_cfg.with_theta_max(99, 0.5)
        with pytest.raises(ScenarioError):
            mini_cfg.with_theta_max(1, 0.0)
        with pytest.raises(ScenarioError, match="penalty"):
            mini_cfg.with_theta_max(1, 1e-300)

    def test_search_overrides(self, mini_cfg):
        cfg = mini_cfg.with_search_overrides(epsilon=0.5, max_rounds=3)
        assert cfg.search.epsilon == 0.5
        assert cfg.search.max_rounds == 3
        with pytest.raises(ValueError, match="round bound"):
            mini_cfg.with_search_overrides(epsilon=5e-324)
