"""Scenario configuration, sweep execution and machine-readable reports.

One YAML config file fully determines a run: every knob has a documented
default, every default actually applied is recorded in the report, and the
report carries a digest of the resolved config so identical runs are
identifiable by hash alone.

A scenario is: one synthetic-truth state, one noisy observation set
synthesized from it and shifted per leakage level by the level's induced
brightness-temperature error, one variational analysis and forecast per
ensemble member, and difference metrics against the unperturbed baseline.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import TextIO

import numpy as np
import yaml

from .assim import minimize
from .errors import ConfigError, ModelBlowUpError, ValidationError
from .leakage import (
    AGGRESSOR_CHANNEL,
    AntennaModel,
    EmissionMask,
    LinkBudget,
    TransmitterField,
    VICTIM_CHANNEL,
    aci_leakage_fraction,
    aggregate_leakage_power,
    brightness_perturbation,
    default_emission_mask,
    induced_noise_temperature,
    received_power,
)
from .model import ModelParams, ModelState, Workspace, diagnostics, integrate, nature_run
from .osse import (
    BiasModel,
    ColumnMapping,
    RadianceOperator,
    build_problem,
    default_obs_locations,
    state_vector_to_model,
    synthesize_observations,
)
from .rng import SeededRng, derive_seed

CSV_HEADER = (
    "leakage_dBW,noise_K,delta_tb_K,precip_diff_max_mm,precip_diff_rms_mm,"
    "t2m_diff_max_C,t2m_diff_rms_C,analysis_cost,converged"
)

DEFAULT_LEAKAGE_SWEEP_DBW = (-55.0, -45.0, -35.0, -30.0, -25.0, -20.0, -15.0)


class ScenarioExecutionError(RuntimeError):
    """A module error during a run, annotated with level and member."""


@dataclass(frozen=True)
class Seeds:
    nature: int
    obs_noise: int
    init: int


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Fully resolved run description (defaults already applied)."""

    leakage_levels: tuple[float, ...]
    leakage_interpretation: str
    link: LinkBudget
    antenna: AntennaModel
    mask: EmissionMask
    field: TransmitterField
    mapping: ColumnMapping
    bias: BiasModel
    state_variance: float
    bias_variance: float
    obs_error_stddev_k: float
    model_params: ModelParams
    grid_size: int
    obs_locations: tuple[int, ...]
    seeds: Seeds
    spinup_steps: int
    forecast_length: float
    ensemble_size: int
    background_noise_std: float
    hold_bias_fixed: bool
    defaulted_fields: tuple[str, ...]
    config_hash: str


@dataclass(frozen=True)
class LevelMetrics:
    """One report row: forecast divergence caused by one leakage level."""

    label: str
    leakage_dbw: float | None
    noise_k: float
    delta_tb_k: float
    precip_diff_max_mm: float
    precip_diff_rms_mm: float
    t2m_diff_max_c: float
    t2m_diff_rms_c: float
    analysis_cost: float
    converged: bool


@dataclass(frozen=True, eq=False)
class ScenarioReport:
    baseline: LevelMetrics
    levels: tuple[LevelMetrics, ...]
    config_hash: str
    defaulted_fields: tuple[str, ...]
    ensemble_size: int
    forecast_length: float

    @property
    def rows(self) -> tuple[LevelMetrics, ...]:
        return (self.baseline, *self.levels)


# The link, field, forward, bias and model sections map field for field onto
# their dataclasses (beside field.density_class and model.grid_size), and the
# antenna section is AntennaModel's radiation efficiency alone, so their
# defaults are the dataclasses'. The other sections' are written here only.
_SECTION_DEFAULTS = {
    "link": asdict(LinkBudget()),
    "antenna": {"radiation_efficiency": AntennaModel().radiation_efficiency},
    "mask": {"breakpoints": None},
    "field": {"density_class": "custom", **asdict(TransmitterField())},
    "forward": asdict(ColumnMapping()),
    "bias": asdict(BiasModel()),
    "covariances": {
        "state_variance": 1.0,
        "bias_variance": 0.5,
        "observation_stddev_k": 0.3,
    },
    "model": {"grid_size": 40, **asdict(ModelParams())},
    "observations": {"count": 20, "locations": None},
    "seeds": {"nature": 101, "obs_noise": 202, "init": 303},
}

#: Emitters per footprint for each ``field.density_class``: plumbing presets,
#: not measured densities. ``custom`` (None here) takes ``field.count``.
_DENSITY_COUNTS = {"custom": None, "metropolitan": 250, "rural": 10}

_TOP_DEFAULTS = {
    "leakage_levels": list(DEFAULT_LEAKAGE_SWEEP_DBW),
    "leakage_interpretation": "aggregate",
    "spinup_steps": 500,
    "forecast_length": 12.0,
    "ensemble_size": 1,
    "background_noise_std": 0.5,
    "hold_bias_fixed": False,
}

#: RK4 steps taken at load from the nature run's initial state. From nature
#: seeds 1, 2, 3, 20 and 101, a ``model.dt`` of 0.15 or more blows up within 7.
_TIME_STEP_PROBE_STEPS = 8


def _resolve(raw: dict, defaulted: list[str]) -> dict:
    """Fill defaults into a parsed config dict, recording what was filled."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    raw = dict(raw)
    resolved: dict = {}
    for key, default in _TOP_DEFAULTS.items():
        if key in raw:
            resolved[key] = raw.pop(key)
        else:
            resolved[key] = default
            defaulted.append(key)
    for section, keys in _SECTION_DEFAULTS.items():
        data = raw.pop(section, None)
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError("section must be a mapping", field=section)
        unknown = sorted(set(data) - set(keys))
        if unknown:
            raise ConfigError(f"unknown key(s) {unknown}", field=section)
        block = {}
        for key, default in keys.items():
            if key in data:
                block[key] = data[key]
            else:
                block[key] = default
                defaulted.append(f"{section}.{key}")
        resolved[section] = block
    if raw:
        raise ConfigError(f"unknown top-level key(s) {sorted(raw)}")
    if resolved["mask"]["breakpoints"] is None:
        resolved["mask"]["breakpoints"] = [
            list(bp) for bp in default_emission_mask().breakpoints
        ]
    return resolved


def _canonical_hash(resolved: dict) -> str:
    text = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _number(value, field: str) -> float:
    """A finite real number from the config; booleans are not numbers."""
    if isinstance(value, bool):
        raise ConfigError("must be a number, not a boolean", field=field)
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"must be a number, got {value!r}", field=field) from None
    if not math.isfinite(number):
        raise ConfigError("must be finite", field=field)
    return number


def _integer(value, field: str, minimum: int | None = None) -> int:
    """An integer from the config (booleans rejected), at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("must be an integer", field=field)
    if minimum is not None and value < minimum:
        raise ConfigError(f"must be an integer >= {minimum}", field=field)
    return value


def _numbers(block: dict, section: str) -> dict:
    """Every entry of a config section as a finite number, keyed as in the section."""
    return {key: _number(value, f"{section}.{key}") for key, value in block.items()}


def _list(value, field: str) -> list | tuple:
    """A sequence from the config; strings and mappings are not lists."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError("must be a list", field=field)
    return value


def config_from_dict(
    raw: dict,
    seed_override: int | None = None,
    leakage_levels: tuple[float, ...] | None = None,
) -> ScenarioConfig:
    """Validate a parsed config mapping and build the resolved ScenarioConfig.

    ``leakage_levels``, when given, replace the mapping's levels as if they
    were written in it: they are validated, hashed and not listed as
    defaulted.
    """
    defaulted: list[str] = []
    resolved = _resolve(raw, defaulted)
    if leakage_levels is not None:
        resolved["leakage_levels"] = list(leakage_levels)
        defaulted = [name for name in defaulted if name != "leakage_levels"]
    if seed_override is not None:
        resolved["seeds"] = {
            "nature": int(seed_override),
            "obs_noise": int(seed_override) + 1,
            "init": int(seed_override) + 2,
        }

    levels = resolved["leakage_levels"]
    if not isinstance(levels, (list, tuple)) or len(levels) == 0:
        raise ConfigError("must be a non-empty list", field="leakage_levels")
    levels = tuple(_number(v, "leakage_levels") for v in levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("must be sorted strictly ascending", field="leakage_levels")

    interpretation = resolved["leakage_interpretation"]
    if interpretation not in ("aggregate", "per_device"):
        raise ConfigError(
            "must be 'aggregate' or 'per_device'", field="leakage_interpretation"
        )

    ensemble_size = _integer(resolved["ensemble_size"], "ensemble_size", minimum=1)
    spinup_steps = _integer(resolved["spinup_steps"], "spinup_steps", minimum=0)
    forecast_length = _number(resolved["forecast_length"], "forecast_length")
    if forecast_length <= 0:
        raise ConfigError("must be positive", field="forecast_length")
    background_noise_std = _number(resolved["background_noise_std"], "background_noise_std")
    if background_noise_std < 0:
        raise ConfigError("must be >= 0", field="background_noise_std")
    hold_bias_fixed = resolved["hold_bias_fixed"]
    if not isinstance(hold_bias_fixed, bool):
        raise ConfigError("must be true or false", field="hold_bias_fixed")

    seeds_block = resolved["seeds"]
    seeds = Seeds(
        *(_integer(seeds_block[n], f"seeds.{n}") for n in ("nature", "obs_noise", "init"))
    )

    def build(section: str, builder, **kwargs):
        try:
            return builder(**kwargs)
        except ValidationError as exc:
            field = section if exc.field is None else f"{section}.{exc.field}"
            raise ConfigError(str(exc), field=field) from exc

    link = build("link", LinkBudget, **_numbers(resolved["link"], "link"))
    antenna = build("antenna", AntennaModel, **_numbers(resolved["antenna"], "antenna"))
    breakpoints = _list(resolved["mask"]["breakpoints"], "mask.breakpoints")
    if any(not isinstance(bp, (list, tuple)) or len(bp) != 2 for bp in breakpoints):
        raise ConfigError("must be a list of [offset_hz, db] pairs", field="mask.breakpoints")
    mask = build(
        "mask",
        EmissionMask,
        breakpoints=tuple(
            (_number(o, "mask.breakpoints"), _number(p, "mask.breakpoints"))
            for o, p in breakpoints
        ),
    )
    field_block = dict(resolved["field"])
    density_class = field_block.pop("density_class")
    if not isinstance(density_class, str) or density_class not in _DENSITY_COUNTS:
        raise ConfigError(
            f"must be one of {sorted(_DENSITY_COUNTS)}, got {density_class!r}",
            field="field.density_class",
        )
    device_count = _integer(field_block.pop("count"), "field.count")
    preset = _DENSITY_COUNTS[density_class]
    if preset is not None:
        if "field.count" not in defaulted:
            raise ConfigError(
                f"density_class {density_class} sets the count ({preset}); "
                "omit count or use density_class custom",
                field="field.count",
            )
        device_count = preset
    field = build(
        "field", TransmitterField, count=device_count, **_numbers(field_block, "field")
    )
    mapping = build("forward", ColumnMapping, **_numbers(resolved["forward"], "forward"))
    bias_block = resolved["bias"]
    predictors = _list(bias_block["predictors"], "bias.predictors")
    if any(not isinstance(name, str) for name in predictors):
        raise ConfigError("must be a list of predictor names", field="bias.predictors")
    bias = build(
        "bias",
        BiasModel,
        constant_coefficient_k=_number(
            bias_block["constant_coefficient_k"], "bias.constant_coefficient_k"
        ),
        coefficients=tuple(
            _number(c, "bias.coefficients")
            for c in _list(bias_block["coefficients"], "bias.coefficients")
        ),
        predictors=tuple(predictors),
    )
    cov = _numbers(resolved["covariances"], "covariances")
    for key, value in cov.items():
        if value <= 0:
            raise ConfigError("must be positive", field=f"covariances.{key}")
        # The analysis weights by the inverse of each variance (the square of
        # the observation stddev); a variance or inverse that overflows, or a
        # square that underflows to zero, would otherwise fail or stall mid-run.
        variance = value * value if key == "observation_stddev_k" else value
        if not (0.0 < variance < math.inf and math.isfinite(1.0 / variance)):
            raise ConfigError(
                f"variance {variance:.3g}: it and its inverse must be finite and nonzero",
                field=f"covariances.{key}",
            )

    model_block = dict(resolved["model"])
    grid_size = _integer(model_block.pop("grid_size"), "model.grid_size", minimum=4)
    params = build("model", ModelParams, **_numbers(model_block, "model"))
    if _forecast_steps(forecast_length, params) < 1:
        raise ConfigError("must span at least one model time step", field="forecast_length")
    steps = forecast_length / params.dt
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ConfigError(
            f"must be a whole number of model time steps (dt {params.dt:g}, got {steps:.6g})",
            field="forecast_length",
        )
    try:
        nature_run(params, seeds.nature, _TIME_STEP_PROBE_STEPS, 0, grid_size)
    except ModelBlowUpError as exc:
        raise ConfigError(f"dt {params.dt:g} is unstable: {exc}", field="model.dt") from exc
    obs_block = resolved["observations"]
    if obs_block["locations"] is not None:
        if not isinstance(obs_block["locations"], (list, tuple)) or not obs_block["locations"]:
            raise ConfigError(
                "must be a non-empty list of integers", field="observations.locations"
            )
        locations = tuple(
            _integer(loc, "observations.locations") for loc in obs_block["locations"]
        )
        if any(not 0 <= loc < grid_size for loc in locations):
            raise ConfigError(
                "locations must index the model grid", field="observations.locations"
            )
        if len(set(locations)) != len(locations):
            raise ConfigError("locations must be unique", field="observations.locations")
    else:
        count = _integer(obs_block["count"], "observations.count")
        try:
            locations = default_obs_locations(grid_size, count)
        except ValidationError as exc:
            raise ConfigError(str(exc), field="observations.count") from exc

    config = ScenarioConfig(
        leakage_levels=levels,
        leakage_interpretation=interpretation,
        link=link,
        antenna=antenna,
        mask=mask,
        field=field,
        mapping=mapping,
        bias=bias,
        state_variance=cov["state_variance"],
        bias_variance=cov["bias_variance"],
        obs_error_stddev_k=cov["observation_stddev_k"],
        model_params=params,
        grid_size=grid_size,
        obs_locations=locations,
        seeds=seeds,
        spinup_steps=spinup_steps,
        forecast_length=forecast_length,
        ensemble_size=ensemble_size,
        background_noise_std=background_noise_std,
        hold_bias_fixed=hold_bias_fixed,
        defaulted_fields=tuple(defaulted),
        config_hash=_canonical_hash(resolved),
    )
    # Every level must give a finite noise temperature and a brightness
    # error whose observation cost n_obs (delta_tb / sigma_o)^2 is finite, or
    # the run would fail on its first observation or its first analysis.
    for level in levels:
        try:
            noise_k, delta_tb = leakage_chain(config, level)
        except OverflowError:
            noise_k = delta_tb = math.inf
        except ValidationError as exc:
            raise ConfigError(f"level {level:g} dBW: {exc}", field="leakage_levels") from exc
        scaled = delta_tb / config.obs_error_stddev_k
        if not (math.isfinite(noise_k) and math.isfinite(len(locations) * (scaled * scaled))):
            raise ConfigError(
                f"level {level:g} dBW gives a noise temperature of {noise_k:.3g} K and a "
                f"brightness error of {delta_tb:.3g} K, whose observation cost is not finite",
                field="leakage_levels",
            )
    return config


def _forecast_steps(forecast_length: float, params: ModelParams) -> int:
    """RK4 steps in one forecast: the length in units of ``dt``, rounded."""
    return int(round(forecast_length / params.dt))


def load_config(
    path: str,
    seed_override: int | None = None,
    leakage_levels: tuple[float, ...] | None = None,
) -> ScenarioConfig:
    """Parse and validate a YAML scenario config file (see ``config_from_dict``
    for the two overrides)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"could not read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        line = None
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise ConfigError(f"could not parse config: {exc}", line=line) from exc
    if raw is None:
        raw = {}
    return config_from_dict(raw, seed_override=seed_override, leakage_levels=leakage_levels)


def leakage_chain(config: ScenarioConfig, level_dbw: float) -> tuple[float, float]:
    """Leakage level to (induced noise temperature K, brightness error K).

    In the default 'aggregate' interpretation the level is the total leakage
    power entering the link. In 'per_device' it is one device's in-band
    EIRP: the emission mask sets the leaked fraction and the transmitter
    field aggregates over the footprint.
    """
    if config.leakage_interpretation == "per_device":
        fraction = aci_leakage_fraction(config.mask, AGGRESSOR_CHANNEL, VICTIM_CHANNEL)
        aggregate_dbw = aggregate_leakage_power(config.field, level_dbw, fraction)
    else:
        aggregate_dbw = level_dbw
    _, noise_k, delta_tb = _aggregate_chain(aggregate_dbw, config.link, config.antenna)
    return noise_k, delta_tb


def _aggregate_chain(
    aggregate_dbw: float, link: LinkBudget, antenna: AntennaModel
) -> tuple[float, float, float]:
    """Aggregate leakage (dBW) to (received power W, noise temperature K, brightness error K)."""
    p_rx = received_power(aggregate_dbw, link)
    noise_k = induced_noise_temperature(p_rx, VICTIM_CHANNEL)
    return p_rx, noise_k, brightness_perturbation(noise_k, antenna)


def _member_background(config: ScenarioConfig, truth: ModelState, member: int) -> ModelState:
    rng = SeededRng(derive_seed(config.seeds.init, member))
    n = config.grid_size
    noise_t = config.background_noise_std * np.array(rng.normals(n))
    noise_q = config.background_noise_std * np.array(rng.normals(n))
    return ModelState(
        truth.temperature_field + noise_t,
        np.maximum(0.0, truth.moisture_field + noise_q),
    )


def _analyze_and_forecast(config: ScenarioConfig, background: ModelState, observations,
                          operator: RadianceOperator, workspace: Workspace,
                          trace_stream: TextIO | None = None, trace_label: str = ""):
    problem = build_problem(
        background,
        operator,
        observations,
        state_variance=config.state_variance,
        bias_variance=config.bias_variance,
        obs_stddev_k=config.obs_error_stddev_k,
    )
    on_iteration = None
    if trace_stream is not None:
        def on_iteration(iteration, cost_value, gradient_norm):
            trace_stream.write(
                f"{trace_label} iter {iteration:3d}: J={cost_value:.9g} |grad|={gradient_norm:.3e}\n"
            )
    result = minimize(
        problem, hold_bias_fixed=config.hold_bias_fixed, on_iteration=on_iteration
    )
    analysis = state_vector_to_model(result.analysis_state, config.grid_size)
    n_steps = _forecast_steps(config.forecast_length, config.model_params)
    forecast = integrate(analysis, config.model_params, n_steps, workspace)
    return result, diagnostics(forecast, config.model_params)


def run_scenario(
    config: ScenarioConfig, trace_stream: TextIO | None = None
) -> ScenarioReport:
    """Execute baseline plus every leakage level; difference the forecasts.

    The truth's noisy observations are synthesized once; the baseline and
    every level add their brightness error to that one array, so levels
    differ only through the injected error. Ensemble members differ only in
    their background perturbation; metrics are averaged over members. Levels
    and members are independent, but results are always assembled in config
    order. Every case shares one observation operator and one RK4
    workspace, built here once per scenario. When ``trace_stream`` is given
    (the CLI's verbose mode), every analysis writes its iteration trace
    there.
    """
    truth = nature_run(
        config.model_params, config.seeds.nature, config.spinup_steps, 0, config.grid_size
    ).final

    observed = synthesize_observations(
        truth,
        config.mapping,
        config.bias,
        config.seeds.obs_noise,
        config.obs_locations,
        error_stddev_k=config.obs_error_stddev_k,
    )
    backgrounds = [
        _member_background(config, truth, m) for m in range(config.ensemble_size)
    ]
    operator = RadianceOperator(
        config.mapping, config.bias, config.obs_locations, config.grid_size
    )
    workspace = Workspace(config.grid_size, config.model_params)
    baseline = None
    rows = []
    # The baseline goes first, through the same path as a level with zero
    # brightness error; its differences from itself are exact zeros.
    for level in (None, *config.leakage_levels):
        if level is None:
            label = where = trace_label = "baseline"
            noise_k = delta_tb = 0.0
        else:
            label, where, trace_label = f"{level:g}", f"level {level} dBW", f"level {level:g}"
            noise_k, delta_tb = leakage_chain(config, level)
        observations = observed + delta_tb
        # One (2, members, grid) array per level holds each member's precipitation
        # and near-surface temperature; reducing along its contiguous axes gives
        # the bits of a reduction over each member's vectors alone.
        results, fields = [], np.empty((2, len(backgrounds), config.grid_size))
        for m, background in enumerate(backgrounds):
            try:
                result, diag = _analyze_and_forecast(
                    config, background, observations, operator, workspace,
                    trace_stream=trace_stream, trace_label=f"{trace_label} m{m}",
                )
            except Exception as exc:
                raise ScenarioExecutionError(f"{where}, member {m}: {exc}") from exc
            results.append(result)
            fields[0, m] = diag.accumulated_precipitation_mm
            fields[1, m] = diag.two_meter_temperature_k
        if baseline is None:
            baseline = fields
        diffs = fields - baseline
        worst, rms = np.max(np.abs(diffs), axis=2), np.sqrt(np.mean(diffs**2, axis=2))
        rows.append(
            LevelMetrics(
                label=label,
                leakage_dbw=level,
                noise_k=noise_k,
                delta_tb_k=delta_tb,
                precip_diff_max_mm=float(np.mean(worst[0])),
                precip_diff_rms_mm=float(np.mean(rms[0])),
                t2m_diff_max_c=float(np.mean(worst[1])),
                t2m_diff_rms_c=float(np.mean(rms[1])),
                analysis_cost=float(np.mean([r.final_cost for r in results])),
                converged=all(r.converged for r in results),
            )
        )

    return ScenarioReport(
        baseline=rows[0],
        levels=tuple(rows[1:]),
        config_hash=config.config_hash,
        defaulted_fields=config.defaulted_fields,
        ensemble_size=config.ensemble_size,
        forecast_length=config.forecast_length,
    )


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _row_cells(row: LevelMetrics) -> list[str]:
    return [
        row.label,
        _fmt(row.noise_k),
        _fmt(row.delta_tb_k),
        _fmt(row.precip_diff_max_mm),
        _fmt(row.precip_diff_rms_mm),
        _fmt(row.t2m_diff_max_c),
        _fmt(row.t2m_diff_rms_c),
        _fmt(row.analysis_cost),
        "true" if row.converged else "false",
    ]


def emit_csv(report: ScenarioReport, path: str) -> None:
    """Write the report as CSV: a hash comment, the header, baseline row,
    then one row per leakage level in config order. Numbers carry 9
    significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={report.config_hash}\n")
        fh.write(CSV_HEADER + "\n")
        for row in report.rows:
            fh.write(",".join(_row_cells(row)) + "\n")


def emit_summary(report: ScenarioReport, stream: TextIO) -> None:
    """Human-readable table of the same rows, plus provenance."""
    columns = CSV_HEADER.split(",")
    table = [columns] + [_row_cells(row) for row in report.rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(columns))]
    stream.write(f"config hash: {report.config_hash}\n")
    stream.write(
        f"ensemble size: {report.ensemble_size}, "
        f"forecast length: {report.forecast_length:g} model time units\n"
    )
    if report.defaulted_fields:
        stream.write(f"defaults applied: {', '.join(report.defaulted_fields)}\n")
    stream.write("\n")
    for line in table:
        stream.write("  ".join(cell.rjust(w) for cell, w in zip(line, widths)) + "\n")


def parse_report_csv(path: str) -> list[dict]:
    """Read back an emitted CSV (comment lines skipped) as row dicts."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header: list[str] | None = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            cells = line.split(",")
            row: dict = dict(zip(header, cells))
            for key in header[1:-1]:
                row[key] = float(row[key])
            row["converged"] = row["converged"] == "true"
            rows.append(row)
    return rows


def noise_table(
    levels_dbw,
    link: LinkBudget,
    antenna: AntennaModel,
) -> list[dict]:
    """Induced-noise curve: one row per leakage level (aggregate dBW)."""
    rows = []
    for level in levels_dbw:
        p_rx, noise_k, delta_tb = _aggregate_chain(level, link, antenna)
        rows.append(
            {
                "leakage_dBW": level,
                "received_power_W": p_rx,
                "noise_K": noise_k,
                "delta_tb_K": delta_tb,
            }
        )
    return rows


def emit_noise_table_csv(rows: list[dict], stream: TextIO) -> None:
    stream.write("leakage_dBW,received_power_W,noise_K,delta_tb_K\n")
    for row in rows:
        cells = [
            _fmt(row["leakage_dBW"]),
            _fmt(row["received_power_W"]),
            _fmt(row["noise_K"]),
            _fmt(row["delta_tb_K"]),
        ]
        stream.write(",".join(cells) + "\n")
