"""Tests for config loading, scenario execution, report emission and the CLI."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import wxleak.experiment as experiment
import wxleak.model as model
import wxleak.osse as osse
from wxleak.cli import main
from wxleak.errors import ConfigError, ModelBlowUpError
from wxleak.experiment import (
    CSV_HEADER,
    DEFAULT_LEAKAGE_SWEEP_DBW,
    LevelMetrics,
    ScenarioReport,
    config_from_dict,
    emit_csv,
    emit_summary,
    leakage_chain,
    load_config,
    noise_table,
    parse_report_csv,
    run_scenario,
)
from wxleak.leakage import AntennaModel, LinkBudget

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

SMALL_RUN = {
    "leakage_levels": [-30.0, -20.0],
    "model": {"grid_size": 12},
    "observations": {"count": 6},
    "spinup_steps": 100,
    "forecast_length": 0.5,
}


#: For each ``_RULES`` key: configs whose value lies just past the rule's
#: bound (rejected by the rule), and configs whose value lies at it (loaded).
#: An open bound's nearest value that loads stands for the bound; a choice's
#: values past it include a list, which a set could not look up.
RULE_BOUNDS = {
    "leakage_levels": (["leakage_levels: []"], ["leakage_levels: [-30]"]),
    "leakage_interpretation": (
        ["leakage_interpretation: per-device", "leakage_interpretation: [aggregate]"],
        ["leakage_interpretation: per_device"],
    ),
    "spinup_steps": (
        ["spinup_steps: -1", "spinup_steps: 1000001"],
        ["spinup_steps: 0", "spinup_steps: 1000000"],
    ),
    "forecast_length": (["forecast_length: 0.0"], ["forecast_length: 0.01"]),
    "ensemble_size": (
        ["ensemble_size: 0", "ensemble_size: 10001"], ["ensemble_size: 1", "ensemble_size: 10000"]
    ),
    "background_noise_std": (["background_noise_std: -5.0e-324"], ["background_noise_std: 0.0"]),
    "antenna.radiation_efficiency": (
        ["antenna: {radiation_efficiency: 0.0}", "antenna: {radiation_efficiency: -0.0}"],
        [
            "{antenna: {radiation_efficiency: 5.0e-324}, leakage_levels: [-3000], "
            "forecast_length: 0.05, spinup_steps: 10}"
        ],
    ),
    "field.density_class": (
        ["field: {density_class: urban}", "field: {density_class: [rural]}"],
        ["field: {density_class: rural}"],
    ),
    "covariances.state_variance": (
        ["covariances: {state_variance: 0.0}", "covariances: {state_variance: 5.0e-309}"],
        ["covariances: {state_variance: 5.6e-309}"],
    ),
    "covariances.bias_variance": (
        ["covariances: {bias_variance: -1.0}", "covariances: {bias_variance: 5.0e-309}"],
        ["covariances: {bias_variance: 5.6e-309}"],
    ),
    "covariances.observation_stddev_k": (
        [
            "covariances: {observation_stddev_k: -0.3}",
            "covariances: {observation_stddev_k: 7.0e-155}",
            "covariances: {observation_stddev_k: 1.35e+154}",
        ],
        [
            "{covariances: {observation_stddev_k: 7.5e-155}, leakage_levels: [-300], "
            "forecast_length: 0.05, spinup_steps: 10}",
            "covariances: {observation_stddev_k: 1.3e+154}",
        ],
    ),
    "model.grid_size": (
        ["model: {grid_size: 3}", "model: {grid_size: 10001}"],
        ["{model: {grid_size: 4}, observations: {count: 2}}", "model: {grid_size: 10000}"],
    ),
    "observations.locations": (
        ["{model: {grid_size: 12}, observations: {locations: [0, 5, 5]}}"],
        ["{model: {grid_size: 12}, observations: {locations: [0, 5, 6]}}"],
    ),
    "seeds.nature": (
        ["seeds: {nature: -1}", "seeds: {nature: 18446744073709551616}"],
        ["seeds: {nature: 0}", "seeds: {nature: 18446744073709551615}"],
    ),
    "seeds.obs_noise": (
        ["seeds: {obs_noise: -1}", "seeds: {obs_noise: 18446744073709551616}"],
        ["seeds: {obs_noise: 0}", "seeds: {obs_noise: 18446744073709551615}"],
    ),
    "seeds.init": (
        ["seeds: {init: -1}", "seeds: {init: 18446744073709551616}"],
        ["seeds: {init: 0}", "seeds: {init: 18446744073709551615}"],
    ),
}


def small_config(**overrides):
    raw = dict(SMALL_RUN)
    raw.update(overrides)
    return config_from_dict(raw)


class TestConfigLoading:
    def test_minimal_config_fills_documented_defaults(self):
        config = config_from_dict({})
        assert config.leakage_levels == DEFAULT_LEAKAGE_SWEEP_DBW
        assert config.link.total_pathloss_db == 130.0
        assert config.antenna.radiation_efficiency == 0.95
        assert config.model_params.forcing == 8.0
        assert config.grid_size == 40
        assert config.obs_locations == tuple(range(0, 40, 2))
        assert config.ensemble_size == 1
        assert "link.total_pathloss_db" in config.defaulted_fields
        assert "seeds.nature" in config.defaulted_fields

    def test_unsorted_levels_rejected_naming_field(self):
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict({"leakage_levels": [-20.0, -30.0]})
        assert "leakage_levels" in str(excinfo.value)

    def test_empty_levels_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"leakage_levels": []})

    def test_zero_ensemble_rejected(self):
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict({"ensemble_size": 0})
        assert "ensemble_size" in str(excinfo.value)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"leekage_levels": [-20.0]})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict({"link": {"pathloss": 130.0}})
        assert "link" in str(excinfo.value)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict({"seeds": {"nature": 1.5}})
        assert "seeds.nature" in str(excinfo.value)

    def test_invalid_section_value_names_section(self):
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict({"antenna": {"radiation_efficiency": 1.5}})
        assert "antenna" in str(excinfo.value)

    def test_density_class_presets_fill_count(self):
        config = config_from_dict({"field": {"density_class": "metropolitan"}})
        assert config.field.count == 250
        config = config_from_dict({"field": {"density_class": "rural"}})
        assert config.field.count == 10
        config = config_from_dict({"field": {"density_class": "custom", "count": 7}})
        assert config.field.count == 7

    def test_shipped_yaml_is_the_defaults_table(self):
        """configs/default.yaml sets every key of the defaults table, at its
        default value, and nothing else. The table is compared in its JSON
        form, where a tuple default is the YAML list."""
        path = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
        shipped = yaml.safe_load(path.read_text())
        assert shipped == json.loads(json.dumps(experiment._DEFAULTS))

    def test_explicit_locations_override_count(self):
        """The locations set the count; one written beside them must equal it."""
        for observations in ({"locations": [0, 5, 9]}, {"count": 3, "locations": [0, 5, 9]}):
            config = config_from_dict({"model": {"grid_size": 12}, "observations": observations})
            assert config.obs_locations == (0, 5, 9)

    def test_duplicate_locations_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict(
                {"model": {"grid_size": 12}, "observations": {"locations": [0, 0]}}
            )

    def test_hash_stable_and_sensitive(self):
        a = config_from_dict(dict(SMALL_RUN))
        b = config_from_dict(dict(SMALL_RUN))
        assert a.config_hash == b.config_hash
        assert len(a.config_hash) == 64
        changed = dict(SMALL_RUN)
        changed["forecast_length"] = 0.75
        assert config_from_dict(changed).config_hash != a.config_hash

    def test_seed_override(self):
        config = config_from_dict(dict(SMALL_RUN), seed_override=900)
        assert config.seeds.nature == 900
        assert config.seeds.obs_noise == 901
        assert config.seeds.init == 902
        assert config.config_hash != config_from_dict(dict(SMALL_RUN)).config_hash
        # Overridden seeds are read as if written in the file, so they are not
        # listed as defaults applied.
        assert not any(name.startswith("seeds.") for name in config.defaulted_fields)

    @pytest.mark.parametrize(
        "text, raw", [(yaml.safe_dump(SMALL_RUN), SMALL_RUN), ("", {})], ids=["small", "empty"]
    )
    def test_load_config_from_file(self, tmp_path, text, raw):
        """A file loads as its mapping does; an empty file loads as ``{}``."""
        path = tmp_path / "run.yaml"
        path.write_text(text)
        config = load_config(str(path))
        expected = config_from_dict(dict(raw))
        assert config.leakage_levels == expected.leakage_levels
        assert config.config_hash == expected.config_hash

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.yaml")

    @pytest.mark.parametrize(
        "text, field",
        [
            ("forecast_length: .nan", "forecast_length"),
            ("covariances: {state_variance: .nan}", "covariances.state_variance"),
            ("background_noise_std: .inf", "background_noise_std"),
            ("leakage_levels: [.nan]", "leakage_levels"),
            (f"forecast_length: {10**400}", "forecast_length"),
            (f"leakage_levels: [-20, {10**400}]", "leakage_levels"),
            ("leakage_levels: [-30.000001, -30]", "leakage_levels"),
            ("model: {forcing: .nan}", "model.forcing"),
            ('hold_bias_fixed: "no"', "hold_bias_fixed"),
            ("ensemble_size: true", "ensemble_size"),
            ("forecast_length: 0.001", "forecast_length"),
            ("forecast_length: 1.004", "forecast_length"),
            ("{forecast_length: 0.5, model: {dt: 0.03}}", "forecast_length"),
            ("field: {count: 2.7}", "field.count"),
            ("field: {count: true}", "field.count"),
            ("field: {density_class: metropolitan, count: 2.7}", "field.count"),
            ("field: {density_class: metropolitan, count: 250}", "field.count"),
            ("field: {density_class: rural, count: 3}", "field.count"),
            ("field: {density_class: suburban}", "field.density_class"),
            ("link: {distance_km: 800.0}", "link"),
            ("mask: {in_band_power_dbw: 0.0}", "mask"),
            ("field: {footprint_side_km: 48.0}", "field"),
            ("field: {per_device_eirp_dbw: -43.0}", "field"),
            ("leakage_levels: [3100]", "leakage_levels"),
            ("leakage_levels: [-20, 4000]", "leakage_levels"),
            ("{leakage_interpretation: per_device, leakage_levels: [4000]}", "leakage_levels"),
            ("antenna: {radiation_efficiency: 0.0}", "antenna.radiation_efficiency"),
            ("antenna: {radiation_efficiency: 0}", "antenna.radiation_efficiency"),
            (
                "{antenna: {radiation_efficiency: 1.0e-310}, leakage_levels: [-300], "
                "forecast_length: 0.05, spinup_steps: 10}",
                "leakage_levels",
            ),
            ("observations: {locations: [0.9, 5.5]}", "observations.locations"),
            ("observations: {locations: [0, false]}", "observations.locations"),
            ("observations: {locations: 3}", "observations.locations"),
            ("observations: {locations: []}", "observations.locations"),
            ("observations: {count: abc, locations: [0, 5]}", "observations.count"),
            ("observations: {count: 3, locations: [0, 5]}", "observations.count"),
            ("observations: {count: 20, locations: [0, 5]}", "observations.count"),
            ("mask: {breakpoints: 3}", "mask.breakpoints"),
            ("mask: {breakpoints: [[0.0, 0.0, 1.0]]}", "mask.breakpoints"),
            ("bias: {coefficients: 1.0}", "bias.coefficients"),
            ("bias: {coefficients: [1.0], predictors: [[1]]}", "bias.predictors"),
            ("forward: {opacity_coefficient: -1.0}", "forward.opacity_coefficient"),
            ("link: {transmittance: 2.0}", "link.transmittance"),
            ("model: {condensation_rate: -1.0}", "model.condensation_rate"),
            ("field: {count: -3}", "field.count"),
            ("mask: {breakpoints: [[0.0, 0.0], [0.0, -10.0]]}", "mask.breakpoints"),
            (
                "{leakage_interpretation: per_device, "
                "mask: {breakpoints: [[-2.0e9, 0.0], [2.0e9, 0.0]]}}",
                "mask.breakpoints",
            ),
            (
                "{leakage_interpretation: per_device, "
                "mask: {breakpoints: [[-1.0e12, -4000.0], [1.0e12, -4000.0]]}}",
                "mask.breakpoints",
            ),
            ("antenna: {physical_temperature_k: 290.0}", "antenna"),
            ("model: {dt: 0.5}", "model.dt"),
            ("model: {dt: 0.15}", "model.dt"),
            ("model: {dt: 0.12}", "model.dt"),
            ("model: {forcing: 1000.0}", "model.dt"),
            ("forward: {surface_offset_k: -500.0}", "forward.surface_offset_k"),
            ("forward: {surface_offset_k: 0.0}", "forward.surface_offset_k"),
            ("covariances: {bias_variance: 0.0}", "covariances.bias_variance"),
            (
                "{covariances: {observation_stddev_k: 1.0e-160}, leakage_levels: [-300], "
                "forecast_length: 0.05, spinup_steps: 10}",
                "covariances.observation_stddev_k",
            ),
            (
                "{covariances: {state_variance: 1.0e-320}, leakage_levels: [-30], "
                "forecast_length: 0.05, spinup_steps: 10}",
                "covariances.state_variance",
            ),
            ("covariances: {observation_stddev_k: 1.0e-170}", "covariances.observation_stddev_k"),
            ("covariances: {observation_stddev_k: 1.0e200}", "covariances.observation_stddev_k"),
            ("seeds: {nature: -1}", "seeds.nature"),
            ("seeds: {nature: 18446744073709551617}", "seeds.nature"),
            ("seeds: {nature: -18446744073709551615}", "seeds.nature"),
            ("seeds: {obs_noise: 18446744073709551616}", "seeds.obs_noise"),
            ("seeds: {init: -3}", "seeds.init"),
            ("background_noise_std: -1", "background_noise_std"),
            ("background_noise_std: 1.0e100", "background_noise_std"),
            ("background_noise_std: 1000", "background_noise_std"),
            ("observations: {locations: [40]}", "observations.locations"),
            ("model: {grid_size: 4}", "observations.count"),
            ("model: {dt: true}", "model.dt"),
            ("model: {dt: 0}", "model.dt"),
            ("forward: {atmosphere_temperature_k: 0}", "forward.atmosphere_temperature_k"),
            ("[1, 2]", None),
            ("{1: 2, a: 3}", None),
            ("link: {1: 2, a: 3}", "link"),
            ('forecast_length: "12"', "forecast_length"),
            ('leakage_levels: ["-30"]', "leakage_levels"),
            ('mask: {breakpoints: [["-2.0e9", 0.0], [2.0e9, 0.0]]}', "mask.breakpoints"),
            ("spinup_steps: 1000001", "spinup_steps"),
            ('model: {dt: "1e-3"}', "model.dt"),
        ],
    )
    def test_bad_value_rejected_at_load_naming_field(self, tmp_path, text, field):
        path = tmp_path / "bad.yaml"
        path.write_text(text + "\n")
        with pytest.raises(ConfigError) as excinfo:
            load_config(str(path))
        assert excinfo.value.field == field
        result = CliRunner().invoke(main, ["run", str(path)])
        assert result.exit_code == 1

    @pytest.mark.parametrize("spinup_steps", [10**8, 10**400], ids=["1e8", "401_digits"])
    def test_huge_spinup_rejected_before_any_step(self, monkeypatch, tmp_path, spinup_steps):
        """A spin-up past ``MAX_SPINUP_STEPS`` is rejected at load, naming
        ``spinup_steps``, before the model takes a step; the bound itself loads."""
        steps = []
        step = model.step
        monkeypatch.setattr(model, "step", lambda *args: steps.append(None) or step(*args))
        path = tmp_path / "spinup.yaml"
        path.write_text(
            f"{{spinup_steps: {spinup_steps}, leakage_levels: [-30], forecast_length: 0.05}}\n"
        )
        with pytest.raises(ConfigError) as excinfo:
            load_config(str(path))
        assert excinfo.value.field == "spinup_steps"
        result = CliRunner().invoke(main, ["run", str(path)])
        assert result.exit_code == 1
        assert "spinup_steps" in result.output
        assert steps == []
        limit = config_from_dict({"spinup_steps": experiment.MAX_SPINUP_STEPS})
        assert limit.spinup_steps == experiment.MAX_SPINUP_STEPS

    @pytest.mark.parametrize(
        "text",
        ["forecast_length: 1.0e+300", "{forecast_length: 1.0e+308, model: {dt: 0.001}}"],
        ids=["1e300", "infinite_ratio"],
    )
    def test_huge_forecast_rejected_before_any_step(self, monkeypatch, tmp_path, text):
        """A forecast of more than ``MAX_SPINUP_STEPS`` steps, an infinite
        number of them included, is rejected at load, naming
        ``forecast_length``, before the model takes a step; the bound itself
        loads."""
        steps = []
        step = model.step
        monkeypatch.setattr(model, "step", lambda *args: steps.append(None) or step(*args))
        path = tmp_path / "forecast.yaml"
        path.write_text(text + "\n")
        with pytest.raises(ConfigError) as excinfo:
            load_config(str(path))
        assert excinfo.value.field == "forecast_length"
        result = CliRunner().invoke(main, ["run", str(path)])
        assert result.exit_code == 1
        assert "forecast_length" in result.output
        assert steps == []
        limit = config_from_dict({"forecast_length": 10000.0})
        assert limit.forecast_steps == experiment.MAX_SPINUP_STEPS
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict({"forecast_length": 10000.01})
        assert excinfo.value.field == "forecast_length"

    def test_rule_bounds_cover_every_rule(self):
        assert set(RULE_BOUNDS) == set(experiment._RULES)
        assert all(past and at for past, at in RULE_BOUNDS.values())

    @pytest.mark.parametrize(
        "field, text", [(field, text) for field, (past, _) in RULE_BOUNDS.items() for text in past]
    )
    def test_value_past_rule_bound_rejected_naming_field(self, tmp_path, field, text):
        """The rule itself rejects the value, with its message, as it is read."""
        path = tmp_path / "past.yaml"
        path.write_text(text + "\n")
        with pytest.raises(ConfigError) as excinfo:
            load_config(str(path))
        assert excinfo.value.field == field
        assert str(excinfo.value) == f"{experiment._RULES[field][1]} (field: {field})"
        assert CliRunner().invoke(main, ["run", str(path)]).exit_code == 1

    @pytest.mark.parametrize(
        "field, text", [(field, text) for field, (_, at) in RULE_BOUNDS.items() for text in at]
    )
    def test_value_at_rule_bound_loads(self, tmp_path, field, text):
        path = tmp_path / "at.yaml"
        path.write_text(text + "\n")
        load_config(str(path))

    @pytest.mark.parametrize(
        "written, plain",
        [
            ("model: {dt: 1e-3}", "model: {dt: 0.001}"),
            ("model: {dt: 1E-3}", "model: {dt: 0.001}"),
            ("forecast_length: 1.2e1", "forecast_length: 12.0"),
            (
                "mask: {breakpoints: [[-1e9, 0], [-.45E+9, -40], [3.0e9, -40]]}",
                "mask: {breakpoints: [[-1.0e+9, 0], [-450000000.0, -40], [3000000000, -40]]}",
            ),
        ],
    )
    def test_exponent_spelling_reads_as_its_number(self, tmp_path, written, plain):
        """A float written with an exponent (YAML 1.2's spelling, which YAML 1.1
        reads as text) is read, and hashed, as the number it spells; a quoted
        one is still text, rejected in a number field."""
        configs = []
        for name, text in (("written", written), ("plain", plain)):
            path = tmp_path / f"{name}.yaml"
            path.write_text(text + "\n")
            configs.append(load_config(str(path)))
        assert configs[0].config_hash == configs[1].config_hash

    def test_unstable_dt_advises_reducing_it(self):
        """The load-time probe suspects the time step, and says so."""
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict({"model": {"dt": 0.5}})
        assert excinfo.value.field == "model.dt"
        assert str(excinfo.value) == (
            "dt 0.5 is unstable: non-finite model state after step 2; "
            "reduce dt or check parameters (field: model.dt)"
        )

    def test_spinup_blow_up_advises_reducing_dt(self, monkeypatch):
        """A spin-up that blows up past the load-time probe's steps suspects
        the time step too."""

        def blowing_up(*args):
            raise ModelBlowUpError(600)

        config = small_config()
        monkeypatch.setattr(experiment, "nature_run", blowing_up)
        with pytest.raises(experiment.ScenarioExecutionError) as excinfo:
            run_scenario(config)
        assert str(excinfo.value) == (
            "nature run spin-up: non-finite model state after step 600; "
            "reduce dt or check parameters"
        )

    @pytest.mark.parametrize(
        "length, steps",
        [(12.0, 1200), (1.0, 100), (0.75, 75), (0.5, 50), (0.2, 20), (0.05, 5), (0.29, 29)],
    )
    def test_whole_step_forecast_lengths_load(self, length, steps):
        """Lengths that are whole numbers of dt load, also where length / dt
        is not an integer in floating point (0.29 / 0.01 is 28.999999999999996)."""
        config = config_from_dict({"forecast_length": length})
        assert config.forecast_steps == steps

    def test_shipped_config_hash_unchanged(self):
        """Validation never rewrites a valid config, so its hash stays put."""
        path = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
        assert load_config(str(path)).config_hash == (
            "3f56851edb7137a29f3412ddda28e083fc7e9250d22e660f9b16cfee5d4493f3"
        )

    def test_hash_reads_values_not_spellings(self):
        """The hash is taken of the values read: a number field written as an
        integer hashes as the float it is read as, and an integer field
        written as a float is rejected."""
        written = {"forecast_length": 12, "leakage_levels": [-30, -20], "link": {"transmittance": 1}}
        as_floats = {
            "forecast_length": 12.0,
            "leakage_levels": [-30.0, -20.0],
            "link": {"transmittance": 1.0},
        }
        assert config_from_dict(written).config_hash == config_from_dict(as_floats).config_hash
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict({"ensemble_size": 1.0})
        assert excinfo.value.field == "ensemble_size"

    def test_levels_with_distinct_row_labels_load(self):
        """Only levels whose %g labels coincide are rejected: -30.0001 and
        -30 label their rows apart."""
        config = config_from_dict({"leakage_levels": [-30.0001, -30]})
        labels = [f"{level:g}" for level in config.leakage_levels]
        assert labels == ["-30.0001", "-30"]

    @pytest.mark.parametrize(
        "text", ["forecast_length: " + "9" * 5000, "leakage_levels: [-30]\nwhen: 2020-13-01"]
    )
    def test_unbuildable_scalar_is_config_error(self, tmp_path, text):
        """A scalar PyYAML matches but cannot build (an integer past the
        interpreter's digit limit, a date with month 13) is a config error,
        exit 1, not a crash."""
        path = tmp_path / "bad.yaml"
        path.write_text(text + "\n")
        with pytest.raises(ConfigError):
            load_config(str(path))
        assert CliRunner().invoke(main, ["run", str(path)]).exit_code == 1

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("leakage_levels: [-20\nmodel:\n")
        with pytest.raises(ConfigError) as excinfo:
            load_config(str(path))
        assert excinfo.value.line is not None


class TestLeakageChain:
    def test_aggregate_interpretation_reproduces_reference(self):
        config = config_from_dict({})
        noise_k, delta_tb = leakage_chain(config, -20.0)
        assert abs(noise_k - 0.26826) / 0.26826 < 1e-5
        assert abs(delta_tb - 0.26826 / 0.95) / (0.26826 / 0.95) < 1e-5

    def test_per_device_applies_mask_and_field(self):
        """Per-device route equals aggregate route shifted by count and fraction."""
        from wxleak.leakage import (
            AGGRESSOR_CHANNEL,
            VICTIM_CHANNEL,
            aci_leakage_fraction,
        )

        config = config_from_dict(
            {"leakage_interpretation": "per_device", "field": {"count": 10}}
        )
        fraction = aci_leakage_fraction(config.mask, AGGRESSOR_CHANNEL, VICTIM_CHANNEL)
        noise_per_device, _ = leakage_chain(config, -20.0)
        aggregate_config = config_from_dict({})
        equivalent = -20.0 + 10.0 * math.log10(10 * fraction)
        noise_aggregate, _ = leakage_chain(aggregate_config, equivalent)
        assert abs(noise_per_device - noise_aggregate) / noise_aggregate < 1e-9


class TestRunScenario:
    def test_baseline_row_is_exactly_zero(self):
        report = run_scenario(small_config())
        b = report.baseline
        assert (
            b.precip_diff_max_mm == 0.0
            and b.precip_diff_rms_mm == 0.0
            and b.t2m_diff_max_c == 0.0
            and b.t2m_diff_rms_c == 0.0
        )
        assert b.delta_tb_k == 0.0 and b.noise_k == 0.0

    def test_negligible_leakage_diffs_exactly_zero(self):
        """-300 dBW shifts observations below float resolution: no impact at all."""
        report = run_scenario(small_config(leakage_levels=[-300.0]))
        row = report.levels[0]
        assert row.precip_diff_max_mm == 0.0
        assert row.precip_diff_rms_mm == 0.0
        assert row.t2m_diff_max_c == 0.0
        assert row.t2m_diff_rms_c == 0.0

    def test_default_chain_delta_tb(self):
        report = run_scenario(small_config(leakage_levels=[-20.0]))
        expected = 0.26826 / 0.95
        assert abs(report.levels[0].delta_tb_k - expected) / expected < 1e-5

    def test_rows_in_config_order_and_delta_increasing(self):
        report = run_scenario(small_config())
        assert [row.leakage_dbw for row in report.levels] == [-30.0, -20.0]
        deltas = [row.delta_tb_k for row in report.levels]
        assert deltas[0] < deltas[1]

    def test_one_integrate_per_forecast_and_one_step_per_rk4_step(self, monkeypatch):
        """Each forecast is one ``experiment.integrate`` call and each RK4 step
        one ``model.step`` call, both looked up at call time, so wrappers
        installed on those names see all of the model's work."""
        calls = {"integrate": 0, "step": 0}
        integrate, step = experiment.integrate, model.step

        def counted_integrate(*args, **kwargs):
            calls["integrate"] += 1
            return integrate(*args, **kwargs)

        def counted_step(*args, **kwargs):
            calls["step"] += 1
            return step(*args, **kwargs)

        config = small_config(ensemble_size=2)  # loading takes RK4 steps too
        monkeypatch.setattr(experiment, "integrate", counted_integrate)
        monkeypatch.setattr(model, "step", counted_step)
        run_scenario(config)
        cases = (len(config.leakage_levels) + 1) * config.ensemble_size
        n_steps = 50  # forecast_length 0.5 at dt 0.01
        assert calls["integrate"] == cases
        assert calls["step"] == config.spinup_steps + cases * n_steps

    def test_one_operator_and_one_workspace_per_scenario(self, monkeypatch):
        """``run_scenario`` builds the observation operator and the forecasts'
        RK4 workspace once and shares them across every level and member, so
        neither count grows with levels x members (the nature run makes the
        only other workspace)."""
        built = {"operator": 0, "workspace": 0}
        operator_init = osse.RadianceOperator.__post_init__
        workspace_init = model.Workspace.__init__

        def counted_operator(self):
            built["operator"] += 1
            operator_init(self)

        def counted_workspace(self, *args, **kwargs):
            built["workspace"] += 1
            workspace_init(self, *args, **kwargs)

        monkeypatch.setattr(osse.RadianceOperator, "__post_init__", counted_operator)
        monkeypatch.setattr(model.Workspace, "__init__", counted_workspace)
        for levels, members in (([-30.0], 1), ([-30.0, -20.0, -10.0], 3)):
            config = small_config(leakage_levels=levels, ensemble_size=members)
            built.update(operator=0, workspace=0)
            run_scenario(config)
            assert built == {"operator": 1, "workspace": 2}

    def test_one_synthesis_per_scenario_one_chain_per_level(self, monkeypatch):
        """The truth's observations are synthesized once per scenario, by the
        scenario's analysis operator with no scalar operator call, and only
        the levels run the leakage chain."""
        config = small_config(ensemble_size=2)  # loading runs the chain too
        calls = {"synthesize": 0, "chain": 0, "scalar": 0}

        def counted(owner, name, key):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(experiment, "synthesize_observations", "synthesize")
        counted(experiment, "leakage_chain", "chain")
        counted(osse, "bias_corrected_forward", "scalar")
        run_scenario(config)
        assert calls == {
            "synthesize": 1,
            "chain": len(config.leakage_levels),
            "scalar": 0,
        }

    def test_levels_shift_the_one_synthesis_by_their_delta_tb(self, monkeypatch):
        """Every analysis of a row sees the synthesized observations plus the
        row's brightness error, bit for bit, so rows differ only through the
        injected error."""
        synthesized, analysed = [], []
        synthesize, build_problem = experiment.synthesize_observations, experiment.build_problem

        def recording_synthesize(*args, **kwargs):
            synthesized.append(synthesize(*args, **kwargs))
            return synthesized[-1]

        def recording_build_problem(background, operator, observations, *args, **kwargs):
            analysed.append(observations)
            return build_problem(background, operator, observations, *args, **kwargs)

        monkeypatch.setattr(experiment, "synthesize_observations", recording_synthesize)
        monkeypatch.setattr(experiment, "build_problem", recording_build_problem)
        config = small_config(ensemble_size=2)
        report = run_scenario(config)
        (observed,) = synthesized
        expected = [observed + row.delta_tb_k for row in report.rows for _ in range(2)]
        assert len(analysed) == len(expected)
        for got, want in zip(analysed, expected):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_benchmark_tracer_counts_match_the_config(self, monkeypatch):
        """The benchmark's tracer patches wxleak names from outside; a moved
        or renamed one loses its counts. Under ``Tracer().installed()`` a
        small scenario gives what the benchmark's trace self-tests assert:
        RK4 steps, forecasts and analyses from the config, and one Jacobian
        per analysis plus one per iteration. Synthesis runs once, as one
        operator evaluation; every other evaluation is one of the
        minimizer's cost evaluations, which no longer go through
        ``assim.cost``, and the scalar operator is not called."""
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        from tracing import Tracer

        one_predictor = {"coefficients": [0.01], "predictors": ["surface_temperature"]}
        config = small_config(ensemble_size=2, bias=one_predictor)
        with Tracer().installed() as tracer:
            run_scenario(config)
        calls, _, _ = tracer.totals()
        cases = (len(config.leakage_levels) + 1) * config.ensemble_size
        n_steps = 50  # forecast_length 0.5 at dt 0.01
        assert tracer.counts["model.steps"] == config.spinup_steps + cases * n_steps
        assert calls["model.integrate"] == calls["assim.minimize"] == cases
        iterations = tracer.counts["analysis_result.iterations"]
        assert iterations > 0
        assert calls["osse.operator_jacobians"] - calls["assim.minimize"] == iterations
        assert calls["osse.synthesize"] == 1
        callers = Counter(
            tracer.spans[parent][0]
            for name, _, _, parent in tracer.spans
            if name == "osse.operator_values"
        )
        assert callers == {"osse.synthesize": 1, "assim.minimize": calls["osse.operator_values"] - 1}
        assert calls["osse.operator_values"] - 1 > iterations
        assert calls["assim.cost"] == 0
        assert calls["forward.scalar"] == 0

    @pytest.mark.parametrize(
        "failing_call, message",
        [(1, "baseline, member 1: "), (2, "level -30.0 dBW, member 0: ")],
    )
    def test_member_failure_names_row_and_member(self, monkeypatch, failing_call, message):
        """Forecasts run baseline members first, then each level's members;
        the ``failing_call``-th (from 0) fails."""
        integrate = experiment.integrate
        calls = []

        def failing_integrate(*args, **kwargs):
            calls.append(None)
            if len(calls) == failing_call + 1:
                raise RuntimeError("forced failure")
            return integrate(*args, **kwargs)

        config = small_config(ensemble_size=2)  # loading takes RK4 steps too
        monkeypatch.setattr(experiment, "integrate", failing_integrate)
        with pytest.raises(experiment.ScenarioExecutionError) as excinfo:
            run_scenario(config)
        assert str(excinfo.value) == message + "forced failure"

    def test_nonzero_leakage_produces_divergence(self):
        report = run_scenario(small_config(leakage_levels=[-15.0]))
        assert report.levels[0].t2m_diff_rms_c > 0.0

    def test_rerun_byte_identical_csv(self, tmp_path):
        config = small_config()
        a_path = tmp_path / "a.csv"
        b_path = tmp_path / "b.csv"
        emit_csv(run_scenario(config), str(a_path))
        emit_csv(run_scenario(config), str(b_path))
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_rerun_identical_at_full_precision(self):
        """Identical seeds reproduce every metric bit for bit, not just to print precision."""
        config = small_config()
        assert run_scenario(config).rows == run_scenario(config).rows

    def test_delta_tb_strictly_increasing_over_default_sweep(self):
        config = config_from_dict({})
        deltas = [leakage_chain(config, level)[1] for level in config.leakage_levels]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))

    def test_ensemble_metrics_average_members(self, monkeypatch):
        """Each divergence column is the mean over members of one member's max
        or RMS over the grid, bit for bit as if each vector were reduced alone."""
        one = run_scenario(small_config(ensemble_size=1))
        diags, diagnostics = [], experiment.diagnostics

        def recorded(*args):
            diags.append(diagnostics(*args))
            return diags[-1]

        monkeypatch.setattr(experiment, "diagnostics", recorded)
        many = run_scenario(small_config(ensemble_size=3))
        assert many.config.ensemble_size == 3
        assert many.levels[0].t2m_diff_rms_c > 0.0
        assert one.levels[0].t2m_diff_rms_c != many.levels[0].t2m_diff_rms_c

        def member_means(level, field):
            diffs = [d[field] - b[field] for d, b in zip(level, diags[:3])]
            return (
                float(np.mean([float(np.max(np.abs(d))) for d in diffs])),
                float(np.mean([float(np.sqrt(np.mean(d**2))) for d in diffs])),
            )

        for i, row in enumerate(many.rows):
            level = diags[3 * i : 3 * i + 3]
            assert (row.precip_diff_max_mm, row.precip_diff_rms_mm) == member_means(level, 0)
            assert (row.t2m_diff_max_c, row.t2m_diff_rms_c) == member_means(level, 1)


def make_report(n_levels):
    baseline = LevelMetrics(None, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.25, True)
    levels = tuple(
        LevelMetrics(
            float(-30 + i),
            0.1 * (i + 1),
            0.11 * (i + 1),
            1e-3 * (i + 1),
            1e-4 * (i + 1),
            2e-3 * (i + 1),
            2.5e-4 * (i + 1),
            3.25 + 0.01 * i,
            True,
        )
        for i in range(n_levels)
    )
    config = dataclasses.replace(
        small_config(ensemble_size=2, forecast_length=1.0),
        config_hash="ab" * 32,
        defaulted_fields=("seeds.nature",),
    )
    return ScenarioReport(config, (baseline, *levels))


class TestEmission:
    def test_header_exact(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv(make_report(2), str(path))
        lines = path.read_text().splitlines()
        data_lines = [l for l in lines if not l.startswith("#")]
        assert data_lines[0] == CSV_HEADER

    def test_report_bytes_exact(self, tmp_path):
        """The hash line, the header, then one row per ``LevelMetrics``: its
        label, each number at nine significant digits, and ``true``."""
        path = tmp_path / "r.csv"
        emit_csv(make_report(2), str(path))
        assert path.read_bytes() == (
            b"# config_hash=" + b"ab" * 32 + b"\n"
            b"leakage_dBW,noise_K,delta_tb_K,precip_diff_max_mm,precip_diff_rms_mm,"
            b"t2m_diff_max_C,t2m_diff_rms_C,analysis_cost,converged\n"
            b"baseline,0,0,0,0,0,0,3.25,true\n"
            b"-30,0.1,0.11,0.001,0.0001,0.002,0.00025,3.25,true\n"
            b"-29,0.2,0.22,0.002,0.0002,0.004,0.0005,3.26,true\n"
        )

    def test_one_row_field_per_column(self):
        assert len(dataclasses.fields(LevelMetrics)) == len(CSV_HEADER.split(","))

    def test_baseline_only_report(self, tmp_path):
        """No sweep levels: header plus the single baseline row."""
        path = tmp_path / "r.csv"
        emit_csv(make_report(0), str(path))
        data_lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert len(data_lines) == 2
        assert data_lines[1].startswith("baseline,")

    def test_six_level_sweep_has_seven_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv(make_report(6), str(path))
        data_lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert len(data_lines) == 1 + 7

    def test_round_trip_within_formatting_precision(self, tmp_path):
        """Parsed-back values match the report to nine significant digits."""
        report = run_scenario(small_config())
        path = tmp_path / "r.csv"
        emit_csv(report, str(path))
        rows = parse_report_csv(str(path))
        assert len(rows) == 3
        for row, source in zip(rows[1:], report.levels):
            for key, value in (
                ("noise_K", source.noise_k),
                ("delta_tb_K", source.delta_tb_k),
                ("precip_diff_rms_mm", source.precip_diff_rms_mm),
                ("t2m_diff_rms_C", source.t2m_diff_rms_c),
                ("analysis_cost", source.analysis_cost),
            ):
                assert abs(row[key] - value) <= 1e-8 * max(1.0, abs(value))

    def test_summary_contains_rows_and_hash(self, tmp_path):
        import io

        report = make_report(2)
        stream = io.StringIO()
        emit_summary(report, stream)
        text = stream.getvalue()
        assert report.config.config_hash in text
        assert "baseline" in text
        assert "seeds.nature" in text


class TestNoiseTable:
    def test_reference_values(self):
        (level, _, low, _), (_, _, high, _) = noise_table(
            [-20.0, -15.0], LinkBudget(), AntennaModel()
        )
        assert level == -20.0
        assert abs(low - 0.26826) / 0.26826 < 1e-5
        assert abs(high - 0.84831) / 0.84831 < 1e-5

    def test_received_power_column(self):
        [(_, received_power_w, _, _)] = noise_table([-20.0], LinkBudget(), AntennaModel())
        assert math.isclose(received_power_w, 1e-15, rel_tol=1e-12)


class TestCli:
    def write_config(self, tmp_path, raw=None):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(raw or SMALL_RUN))
        return str(path)

    def test_run_writes_csv(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "out.csv"
        result = runner.invoke(main, ["run", self.write_config(tmp_path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = parse_report_csv(str(out))
        assert rows[0]["leakage_dBW"] == "baseline"
        assert len(rows) == 3

    def test_run_validation_error_exit_1(self, tmp_path):
        raw = dict(SMALL_RUN)
        raw["ensemble_size"] = 0
        runner = CliRunner()
        result = runner.invoke(main, ["run", self.write_config(tmp_path, raw)])
        assert result.exit_code == 1

    def test_run_missing_config_exit_1(self):
        runner = CliRunner()
        result = runner.invoke(main, ["run", "/nonexistent/x.yaml"])
        assert result.exit_code == 1

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_run_unreadable_config_exit_1(self, tmp_path, kind):
        """A CONFIG that cannot be read as UTF-8 text is a config error naming it."""
        path = tmp_path / "run.yaml"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"ensemble_size: 1  # \xff\xfe\n")
        with pytest.raises(ConfigError) as excinfo:
            load_config(str(path))
        assert str(path) in str(excinfo.value)
        result = CliRunner().invoke(main, ["run", str(path)])
        assert result.exit_code == 1
        assert f"validation error: could not read config {path}" in result.output

    def test_run_unwritable_out_exit_2(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["run", self.write_config(tmp_path), "--out", "/nonexistent-dir/out.csv"],
        )
        assert result.exit_code == 2

    def test_seed_override_changes_output(self, tmp_path):
        runner = CliRunner()
        config = self.write_config(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert runner.invoke(main, ["run", config, "--out", str(a)]).exit_code == 0
        assert (
            runner.invoke(
                main, ["run", config, "--out", str(b), "--seed-override", "777"]
            ).exit_code
            == 0
        )
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize(
        "override, field", [(-1, "seeds.nature"), (2**64 - 2, "seeds.init")]
    )
    def test_seed_override_out_of_range_exit_1(self, tmp_path, override, field):
        """Seeds n, n + 1 and n + 2 must each lie in [0, 2**64), as in the file."""
        config = self.write_config(tmp_path)
        assert config_from_dict(dict(SMALL_RUN), seed_override=2**64 - 3).seeds.init == 2**64 - 1
        result = CliRunner().invoke(main, ["run", config, "--seed-override", str(override)])
        assert result.exit_code == 1
        assert f"field: {field}" in result.output

    def test_sweep_forces_default_levels(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "sweep.csv"
        raw = dict(SMALL_RUN)
        raw["ensemble_size"] = 1
        raw["forecast_length"] = 0.2
        result = runner.invoke(
            main, ["sweep", self.write_config(tmp_path, raw), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        rows = parse_report_csv(str(out))
        assert len(rows) == 1 + len(DEFAULT_LEAKAGE_SWEEP_DBW)

    @pytest.mark.parametrize("efficiency", ["1.0e-310", "1.0e-160"])
    def test_sweep_validates_the_levels_it_runs(self, tmp_path, efficiency):
        """The default sweep's levels are checked at load, not the file's: at
        efficiency 1e-160 the file's -300 dBW loads, but from -55 dBW up the
        sweep's levels give an observation cost that overflows."""
        path = tmp_path / "tiny.yaml"
        path.write_text(
            f"{{antenna: {{radiation_efficiency: {efficiency}}}, leakage_levels: [-300], "
            "forecast_length: 0.05, spinup_steps: 10}\n"
        )
        if efficiency == "1.0e-160":
            assert load_config(str(path)).leakage_levels == (-300.0,)
        with pytest.raises(ConfigError) as excinfo:
            load_config(str(path), leakage_levels=DEFAULT_LEAKAGE_SWEEP_DBW)
        assert excinfo.value.field == "leakage_levels"
        result = CliRunner().invoke(main, ["sweep", str(path)])
        assert result.exit_code == 1
        assert "leakage_levels" in result.output

    def test_sweep_hashes_the_levels_it_runs(self, tmp_path):
        """A sweep report equals, hash line included, the run report of the same
        file with the default sweep written in, whatever levels the file had."""
        raw = {"forecast_length": 0.05, "spinup_steps": 10}
        reports = []
        for name, command, levels in [
            ("one", "sweep", [-20.0]),
            ("two", "sweep", [-30.0, -10.0]),
            ("written", "run", list(DEFAULT_LEAKAGE_SWEEP_DBW)),
        ]:
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(dict(raw, leakage_levels=levels)))
            out = tmp_path / f"{name}.csv"
            result = CliRunner().invoke(main, [command, str(path), "--out", str(out)])
            assert result.exit_code == 0, result.output
            defaults = [line for line in result.output.splitlines() if "defaults" in line]
            reports.append((out.read_bytes(), defaults))
        assert reports[0] == reports[1] == reports[2]
        csv_lines = reports[0][0].decode().splitlines()
        assert len(csv_lines) == 2 + 1 + len(DEFAULT_LEAKAGE_SWEEP_DBW)
        assert "leakage_levels" not in reports[0][1][0]

    def test_run_and_sweep_of_shipped_config_write_the_same_bytes(self, tmp_path):
        """configs/default.yaml writes the default sweep's levels as integers
        (-55); the sweep passes them as floats (-55.0). Both read as the same
        numbers, so the two reports are byte-identical, hash line included."""
        path = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
        reports = []
        for command in ("run", "sweep"):
            out = tmp_path / f"{command}.csv"
            result = CliRunner().invoke(main, [command, str(path), "--out", str(out)])
            assert result.exit_code == 0, result.output
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_noise_table_command(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "noise.csv"
        result = runner.invoke(main, ["noise-table", "--out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "leakage_dBW,received_power_W,noise_K,delta_tb_K"
        assert len(lines) == 1 + 41

    @pytest.mark.parametrize(
        "args, levels",
        [
            (["--min", "-15", "--max", "-15", "--step", "1e-12"], ["-15"]),
            (["--min", "0", "--max", "0.3", "--step", "0.1"], ["0", "0.1", "0.2", "0.3"]),
            (["--min", "0", "--max", "0.35", "--step", "0.1"], ["0", "0.1", "0.2", "0.3"]),
        ],
    )
    def test_noise_table_rows_stop_at_max(self, args, levels):
        """The rows run from --min in --step increments up to --max: a span
        shorter than a step is one row, and a --max that rounding leaves just
        short of a step (0.3 / 0.1 is 2.9999999999999996) keeps its row."""
        result = CliRunner().invoke(main, ["noise-table", *args])
        assert result.exit_code == 0, result.output
        assert [line.split(",")[0] for line in result.output.splitlines()[1:]] == levels

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--min", "-10", "--max", "-20"], None),
            (["--min", "-inf"], "--min must be finite"),
            (["--min", "nan"], "--min must be finite"),
            (["--max", "inf"], "--max must be finite"),
            (["--step", "nan"], "--step must be finite"),
            (["--pathloss", "nan"], "--pathloss must be finite"),
            (["--efficiency", "nan"], "--efficiency must be finite"),
            (["--pathloss", "0"], "--pathloss must be positive"),
            (["--efficiency", "0"], "--efficiency must lie in (0, 1]"),
            (["--efficiency", "1.5"], "--efficiency must lie in (0, 1]"),
            (["--min", "-1e20", "--max", "0"], "--step must give at most"),
            (["--min", "-1e308", "--max", "1e308"], "--step must give at most"),
            (["--min", "3500", "--max", "3500"], "--max 3500 dBW gives a noise temperature of inf K"),
            (["--efficiency", "1e-320"], "gives a brightness error of inf K at -55 dBW"),
            (
                ["--min", "-15", "--max", "-14.9999999999", "--step", "1e-12"],
                "--step 1e-12 gives levels that share the row label -15",
            ),
        ],
    )
    def test_noise_table_bad_range_exit_1(self, args, message):
        """Bad input exits 1 naming its option, with no traceback. The rows
        of a finite range are counted before any is made: stepping from
        -1e20 one dB at a time would never end. A level whose received power
        overflows, or an efficiency too small to divide by, would otherwise
        end in a traceback or write inf."""
        result = CliRunner().invoke(main, ["noise-table", *args])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        if message is not None:
            assert message in result.output

    @pytest.mark.parametrize(
        "config_text, message",
        [
            (
                "{hold_bias_fixed: true, leakage_levels: [20], forecast_length: 0.05, "
                "spinup_steps: 50}",
                "level 20.0 dBW, member 0: non-finite model state after step 2 (forecast "
                "suspects: leakage_levels 20, brightness error 2.82e+03 K)",
            ),
            (
                "{leakage_levels: [400], forecast_length: 0.05, spinup_steps: 10}",
                "level 400.0 dBW, member 0: non-finite model state after step 0 (forecast "
                "suspects: leakage_levels 400, brightness error 2.82e+41 K)",
            ),
            (
                "{covariances: {observation_stddev_k: 1.5e-154}, background_noise_std: 3.0, "
                "leakage_levels: [-300], forecast_length: 0.05, spinup_steps: 10}",
                "baseline, member 0: cost is non-finite at the initial control",
            ),
            (
                "{background_noise_std: 100, forecast_length: 0.05, ensemble_size: 4, "
                "leakage_levels: [-30]}",
                "baseline, member 2: non-finite model state after step 3; reduce dt or check "
                "parameters (forecast suspects: model.dt 0.01, background_noise_std 100)",
            ),
        ],
        ids=["leakage_forecast", "leakage_forecast_400", "analysis_cost", "member_background"],
    )
    def test_blow_up_exit_2_without_floating_point_warnings(self, tmp_path, config_text, message):
        """A forecast that blows the model up, or observations that overflow
        the analysis cost, report where it happened and exit 2, and the
        overflow on the way there prints no RuntimeWarning. A 20 dBW level
        (a brightness error near 2800 K) with the bias held fixed moves the
        analysis far enough from the truth that its forecast blows up at the
        third step, which no load-time probe sees; so does a 400 dBW level
        with the bias free, and member 2's background at sd 100, which the
        probe of member 0's does not see. A forecast's blow-up names its
        suspects: at a level, whose baseline forecast from the same
        background did not blow up, the level and its brightness error; at
        the baseline, the time step and the background perturbation. Only
        the baseline's, where the time step is a suspect, advises reducing it."""
        path = tmp_path / "blowup.yaml"
        path.write_text(config_text + "\n")
        src = Path(__file__).resolve().parents[1] / "src"
        pythonpath = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=pythonpath)
        result = subprocess.run(
            [sys.executable, "-m", "wxleak.cli", "run", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 2
        assert f"runtime error: {message}" in result.stderr
        assert result.stderr.count("reduce dt") == message.count("reduce dt")
        assert "RuntimeWarning" not in result.stderr

    def test_check_passes(self):
        runner = CliRunner()
        result = runner.invoke(main, ["check"])
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output
        assert "FAIL" not in result.output

    def test_verbose_prints_defaults(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["run", self.write_config(tmp_path), "--verbose"])
        assert result.exit_code == 0
        assert result.output.count("defaults applied") == 1

    def test_nonpositive_surface_temperature_exit_1(self, tmp_path):
        """A positive offset that an observed cell's temperature undercuts
        passes the load-time check and is rejected when the truth's
        observations are synthesized (seed 101's truth reads -5.49 at cell 8
        after the default spin-up)."""
        path = tmp_path / "cold.yaml"
        path.write_text("{forward: {surface_offset_k: 1.0}, forecast_length: 0.05}\n")
        result = CliRunner().invoke(main, ["run", str(path)])
        assert result.exit_code == 1
        assert "column temperatures must be positive" in result.output
