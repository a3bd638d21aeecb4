"""Tests for config loading, scenario execution, report emission and the CLI."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import wxleak.experiment as experiment
import wxleak.model as model
import wxleak.osse as osse
from wxleak.cli import main
from wxleak.errors import ConfigError
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
        """configs/default.yaml sets every key of the defaults tables, at its
        default value, and nothing else. The tables are compared in the JSON
        form the config hash reads, where a dataclass's tuple default is the
        YAML list."""
        path = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
        shipped = yaml.safe_load(path.read_text())
        tables = {**experiment._TOP_DEFAULTS, **experiment._SECTION_DEFAULTS}
        assert shipped == json.loads(json.dumps(tables))

    def test_explicit_locations_override_count(self):
        config = config_from_dict(
            {"model": {"grid_size": 12}, "observations": {"locations": [0, 5, 9]}}
        )
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

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(SMALL_RUN))
        config = load_config(str(path))
        assert config.leakage_levels == (-30.0, -20.0)

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
            ("antenna: {radiation_efficiency: 0.0}", "leakage_levels"),
            (
                "{antenna: {radiation_efficiency: 1.0e-310}, leakage_levels: [-300], "
                "forecast_length: 0.05, spinup_steps: 10}",
                "leakage_levels",
            ),
            ("observations: {locations: [0.9, 5.5]}", "observations.locations"),
            ("observations: {locations: [0, false]}", "observations.locations"),
            ("observations: {locations: 3}", "observations.locations"),
            ("observations: {locations: []}", "observations.locations"),
            ("mask: {breakpoints: 3}", "mask.breakpoints"),
            ("mask: {breakpoints: [[0.0, 0.0, 1.0]]}", "mask.breakpoints"),
            ("bias: {coefficients: 1.0}", "bias.coefficients"),
            ("bias: {coefficients: [1.0], predictors: [[1]]}", "bias.predictors"),
            ("forward: {opacity_coefficient: -1.0}", "forward.opacity_coefficient"),
            ("link: {transmittance: 2.0}", "link.transmittance"),
            ("model: {condensation_rate: -1.0}", "model.condensation_rate"),
            ("field: {count: -3}", "field.count"),
            ("mask: {breakpoints: [[0.0, 0.0], [0.0, -10.0]]}", "mask.breakpoints"),
            ("antenna: {physical_temperature_k: 290.0}", "antenna"),
            ("model: {dt: 0.5}", "model.dt"),
            ("model: {dt: 0.15}", "model.dt"),
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

    @pytest.mark.parametrize(
        "length, steps",
        [(12.0, 1200), (1.0, 100), (0.75, 75), (0.5, 50), (0.2, 20), (0.05, 5), (0.29, 29)],
    )
    def test_whole_step_forecast_lengths_load(self, length, steps):
        """Lengths that are whole numbers of dt load, also where length / dt
        is not an integer in floating point (0.29 / 0.01 is 28.999999999999996)."""
        config = config_from_dict({"forecast_length": length})
        assert experiment._forecast_steps(config.forecast_length, config.model_params) == steps

    def test_shipped_config_hash_unchanged(self):
        """Validation never rewrites a valid config, so its hash stays put."""
        path = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
        assert load_config(str(path)).config_hash == (
            "6e66bad0bfec5d301f4baccf4a93d930c260e6638fd34e80e2800ddce27045e2"
        )

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
        """The truth's observations are synthesized once per scenario, one
        scalar operator call per observation, and only the levels run the
        leakage chain."""
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
            "scalar": len(config.obs_locations),
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
        per analysis plus one per iteration. Synthesis runs once, one scalar
        operator call per observation."""
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
        assert calls["forward.scalar"] == len(config.obs_locations)

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

        monkeypatch.setattr(experiment, "integrate", failing_integrate)
        with pytest.raises(experiment.ScenarioExecutionError) as excinfo:
            run_scenario(small_config(ensemble_size=2))
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
        assert many.ensemble_size == 3
        assert many.levels[0].t2m_diff_rms_c > 0.0
        assert one.levels[0].t2m_diff_rms_c != many.levels[0].t2m_diff_rms_c

        def member_means(level, name):
            diffs = [getattr(d, name) - getattr(b, name) for d, b in zip(level, diags[:3])]
            return (
                float(np.mean([float(np.max(np.abs(d))) for d in diffs])),
                float(np.mean([float(np.sqrt(np.mean(d**2))) for d in diffs])),
            )

        for i, row in enumerate(many.rows):
            level = diags[3 * i : 3 * i + 3]
            assert (row.precip_diff_max_mm, row.precip_diff_rms_mm) == member_means(
                level, "accumulated_precipitation_mm"
            )
            assert (row.t2m_diff_max_c, row.t2m_diff_rms_c) == member_means(
                level, "two_meter_temperature_k"
            )


def make_report(n_levels):
    baseline = LevelMetrics("baseline", None, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.25, True)
    levels = tuple(
        LevelMetrics(
            f"{-30 + i}",
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
    return ScenarioReport(
        baseline=baseline,
        levels=levels,
        config_hash="ab" * 32,
        defaulted_fields=("seeds.nature",),
        ensemble_size=2,
        forecast_length=1.0,
    )


class TestEmission:
    def test_header_exact(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv(make_report(2), str(path))
        lines = path.read_text().splitlines()
        data_lines = [l for l in lines if not l.startswith("#")]
        assert data_lines[0] == CSV_HEADER

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
        assert report.config_hash in text
        assert "baseline" in text
        assert "seeds.nature" in text


class TestNoiseTable:
    def test_reference_values(self):
        rows = noise_table([-20.0, -15.0], LinkBudget(), AntennaModel())
        assert abs(rows[0]["noise_K"] - 0.26826) / 0.26826 < 1e-5
        assert abs(rows[1]["noise_K"] - 0.84831) / 0.84831 < 1e-5

    def test_received_power_column(self):
        rows = noise_table([-20.0], LinkBudget(), AntennaModel())
        assert math.isclose(rows[0]["received_power_W"], 1e-15, rel_tol=1e-12)


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

    def test_noise_table_command(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "noise.csv"
        result = runner.invoke(main, ["noise-table", "--out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "leakage_dBW,received_power_W,noise_K,delta_tb_K"
        assert len(lines) == 1 + 41

    def test_noise_table_bad_range_exit_1(self):
        runner = CliRunner()
        result = runner.invoke(main, ["noise-table", "--min", "-10", "--max", "-20"])
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "config_text, message",
        [
            ("model: {dt: 0.12}", "non-finite model state after step 9"),
            (
                "{covariances: {observation_stddev_k: 1.5e-154}, background_noise_std: 3.0, "
                "leakage_levels: [-300], forecast_length: 0.05, spinup_steps: 10}",
                "baseline, member 0: cost is non-finite at the initial control",
            ),
        ],
        ids=["model_time_step", "analysis_cost"],
    )
    def test_blow_up_exit_2_without_floating_point_warnings(self, tmp_path, config_text, message):
        """A time step that blows the model up, or observations that overflow
        the analysis cost, report where it happened and exit 2, and the
        overflow on the way there prints no RuntimeWarning. Time step 0.12
        passes the load-time probe from seed 101's initial state and blows
        up in spin-up."""
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
