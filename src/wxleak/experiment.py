"""Scenario configuration, sweep execution and machine-readable reports.

One YAML config file fully determines a run. One table, ``_DEFAULTS``,
holds every knob's default; each value is read once, by its default's kind
(a bool, an integer, a number or a list of items), and checked as it is
read against its range rule in ``_RULES``, if it has one. Every default
actually applied is recorded in the report, and the report carries a
digest of the values read, so identical runs are identifiable by hash
alone, whether a number is written ``12`` or ``12.0``.

A scenario runs the paper's chain over one list of (row, member) cases, the
unperturbed baseline row first, in four stages: set-up (one synthetic
truth, its noisy observations, shifted per row by the level's induced
brightness-temperature error, and every member's background), one
variational analysis per case, one forecast per analysis, and one
reduction of all forecasts to difference metrics against the baseline.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Callable, TextIO

import numpy as np
import yaml

from .assim import build_problem, minimize
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
    default_obs_locations,
    synthesize_observations,
)
from .rng import SeededRng, derive_seed

NOISE_TABLE_HEADER = "leakage_dBW,received_power_W,noise_K,delta_tb_K"

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
    forecast_steps: int  # RK4 steps in one forecast: forecast_length / dt, rounded
    ensemble_size: int
    background_noise_std: float
    hold_bias_fixed: bool
    defaulted_fields: tuple[str, ...]
    config_hash: str


@dataclass(frozen=True)
class LevelMetrics:
    """One report row, its fields in the CSV's column order: forecast
    divergence caused by one leakage level (``None`` for the baseline).

    Each field is a column, under its own name; the CSV writes the first as
    the row's label, the last as ``true``/``false`` and every other one as a
    number."""

    leakage_dBW: float | None
    noise_K: float
    delta_tb_K: float
    precip_diff_max_mm: float
    precip_diff_rms_mm: float
    t2m_diff_max_C: float
    t2m_diff_rms_C: float
    analysis_cost: float
    converged: bool

    @property
    def label(self) -> str:
        return "baseline" if self.leakage_dBW is None else f"{self.leakage_dBW:g}"


CSV_HEADER = ",".join(f.name for f in fields(LevelMetrics))


@dataclass(frozen=True, eq=False)
class ScenarioReport:
    """A run's config and its report rows, the baseline first."""

    config: ScenarioConfig
    rows: tuple[LevelMetrics, ...]

    @property
    def baseline(self) -> LevelMetrics:
        return self.rows[0]

    @property
    def levels(self) -> tuple[LevelMetrics, ...]:
        return self.rows[1:]


#: Emitters per footprint for each ``field.density_class``: plumbing presets,
#: not measured densities. ``custom`` (None here) takes ``field.count``.
_DENSITY_COUNTS = {"custom": None, "metropolitan": 250, "rural": 10}

#: The longest spin-up, and the longest forecast, a config may ask for: 30 to
#: 60 s of RK4 steps at the default grid on a 2-vCPU Xeon VM. A longer one
#: would hold a run for as long as it says.
MAX_SPINUP_STEPS = 10**6

#: The largest grid a config may ask for. Load steps the whole grid in its
#: probes, and 10^3 cells load in 0.02 s, 10^4 in 0.6 s and 10^5 in 2.4 s
#: on the same VM; every forecast and analysis of a run grows with it too.
MAX_GRID_SIZE = 10**4

#: The most members a config may ask for. ``run_scenario`` draws every
#: member's background before the first analysis, and 10^4 members take
#: 2.1 to 2.7 s at the default grid on the same VM; time and memory grow
#: linearly.
MAX_ENSEMBLE_SIZE = 10**4

#: The most background values per state variable, members times cells: the
#: budget ``MAX_ENSEMBLE_SIZE`` was sized at, on the default 40-cell grid.
#: Each bound alone would let 10^4 members on a 10^4-cell grid load, whose
#: backgrounds (2 x 10^8 values, 1.6 GB) are drawn before the first analysis.
MAX_ENSEMBLE_CELLS = MAX_ENSEMBLE_SIZE * 40

#: The most case-cells, rows (the baseline and each level) times members
#: times cells: the default sweep's 8 rows at the ``MAX_ENSEMBLE_CELLS``
#: budget. ``run_scenario`` keeps every analysis before the first forecast;
#: 8 x 10^4 cases on 40 cells peak at 287 MB and take 74 s at lead 0.01 on the
#: same VM, 29 ms a case (40 min) at lead 12. Time and memory grow linearly.
MAX_CASE_CELLS = 8 * MAX_ENSEMBLE_CELLS

# Every settable value's default: the top-level keys, then one mapping per
# section, in the order a report lists the defaults it applied. The link,
# field, forward, bias and model sections map field for field onto their
# dataclasses (beside field.density_class and model.grid_size), and the
# antenna section is AntennaModel's radiation efficiency alone, so their
# defaults are the dataclasses'.
_DEFAULTS = {
    "leakage_levels": DEFAULT_LEAKAGE_SWEEP_DBW,
    "leakage_interpretation": "aggregate",
    "spinup_steps": 500,
    "forecast_length": 12.0,
    "ensemble_size": 1,
    "background_noise_std": 0.5,
    "hold_bias_fixed": False,
    "link": asdict(LinkBudget()),
    "antenna": {"radiation_efficiency": AntennaModel().radiation_efficiency},
    "mask": {"breakpoints": None},
    "field": {"density_class": "custom", **asdict(TransmitterField())},
    "forward": asdict(ColumnMapping()),
    "bias": asdict(BiasModel()),
    "covariances": {"state_variance": 1.0, "bias_variance": 0.5, "observation_stddev_k": 0.3},
    "model": {"grid_size": 40, **asdict(ModelParams())},
    "observations": {"count": 20, "locations": None},
    "seeds": {"nature": 101, "obs_noise": 202, "init": 303},
}


def _invertible(variance: float) -> bool:
    """Whether the analysis can weight by ``1 / variance``: both finite and nonzero."""
    return 0.0 < variance < math.inf and math.isfinite(1.0 / variance)


# Each single-field range rule, by dotted name: a test of the value read and
# the message it fails with. ``_resolve`` applies it once the value's kind is
# read, so a wrong kind is still the error named. A choice is a tuple's
# ``__contains__``, which needs no hashable value (a YAML list can reach it).
_RULES = {
    "leakage_levels": (bool, "must be a non-empty list"),
    "leakage_interpretation": (
        ("aggregate", "per_device").__contains__, "must be 'aggregate' or 'per_device'"
    ),
    "spinup_steps": (
        lambda n: 0 <= n <= MAX_SPINUP_STEPS, f"must be an integer in [0, {MAX_SPINUP_STEPS}]"
    ),
    "forecast_length": (lambda x: x > 0, "must be positive"),
    "ensemble_size": (
        lambda n: 1 <= n <= MAX_ENSEMBLE_SIZE, f"must be an integer in [1, {MAX_ENSEMBLE_SIZE}]"
    ),
    "background_noise_std": (lambda x: x >= 0, "must be >= 0"),
    # AntennaModel allows 0 for the antenna relation; a scenario cannot run.
    "antenna.radiation_efficiency": (
        lambda x: x != 0, "must be positive: the brightness error divides by it"
    ),
    "field.density_class": (
        tuple(_DENSITY_COUNTS).__contains__, f"must be one of {sorted(_DENSITY_COUNTS)}"
    ),
    # The analysis weights by the inverse of each variance (the square of the
    # observation stddev); one that overflows or underflows would otherwise
    # fail or stall mid-run.
    "covariances.state_variance": (_invertible, "must be positive with a finite inverse"),
    "covariances.bias_variance": (_invertible, "must be positive with a finite inverse"),
    "covariances.observation_stddev_k": (
        lambda s: s > 0 and _invertible(s * s),
        "must be positive with a nonzero, finite square and inverse square",
    ),
    "model.grid_size": (
        lambda n: 4 <= n <= MAX_GRID_SIZE, f"must be an integer in [4, {MAX_GRID_SIZE}]"
    ),
    "observations.locations": (
        lambda locs: locs is None or len(set(locs)) == len(locs), "locations must be unique"
    ),
    # The generators read a seed modulo 2**64, so one outside [0, 2**64)
    # would silently run as another.
    **dict.fromkeys(
        ("seeds.nature", "seeds.obs_noise", "seeds.init"),
        (lambda n: 0 <= n < 2**64, "must be an integer in [0, 2**64)"),
    ),
}

#: The advice a blow-up carries where the time step is a suspect.
_REDUCE_DT = "reduce dt or check parameters"

#: RK4 steps taken at load from the nature run's initial state. Over nature
#: seeds 0-199 and ``model.dt`` 0.080-0.150 in steps of 0.001, every 500-step
#: spin-up that blew up did so within its first 23 steps (dt 0.122 from seed
#: 46 was the latest), and no dt up to 0.100 blew up.
_TIME_STEP_PROBE_STEPS = 23


def _number(value, field: str) -> float:
    """A finite real number from the config; booleans and strings (a quoted
    ``"12"``) are not numbers."""
    if isinstance(value, bool):
        raise ConfigError("must be a number, not a boolean", field=field)
    if not isinstance(value, (int, float)):
        raise ConfigError(f"must be a number, got {value!r}", field=field)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the largest float
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError("must be finite", field=field)
    return number


def _integer(value, field: str) -> int:
    """An integer from the config; booleans are not integers."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("must be an integer", field=field)
    return value


def _pair(value, field: str) -> tuple[float, float]:
    """One ``[offset_hz, db]`` breakpoint of the emission mask."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError("must be a list of [offset_hz, db] pairs", field=field)
    return _number(value[0], field), _number(value[1], field)


def _predictor(value, field: str) -> str:
    if not isinstance(value, str):
        raise ConfigError("must be a list of predictor names", field=field)
    return value


#: The item reader of each list key.
_ITEMS = {
    "leakage_levels": _number,
    "mask.breakpoints": _pair,
    "bias.coefficients": _number,
    "bias.predictors": _predictor,
    "observations.locations": _integer,
}


def _read(value, default, field: str):
    """One config value, read by the kind of its default: a bool, an integer,
    a number, or a list whose items the key's ``_ITEMS`` reader reads. A name
    is returned as written, for ``config_from_dict`` to check."""
    if field in _ITEMS:
        if value is None and default is None:
            return None
        if not isinstance(value, (list, tuple)):
            raise ConfigError("must be a list", field=field)
        return tuple(_ITEMS[field](item, field) for item in value)
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError("must be true or false", field=field)
        return value
    if isinstance(default, int):
        return _integer(value, field)
    if isinstance(default, float):
        return _number(value, field)
    return value


def _resolve(raw: dict, overrides: dict) -> tuple[dict, list[str]]:
    """Read a parsed config into the values a run reads, defaults filled in
    and each value checked against its ``_RULES`` entry.

    ``overrides`` maps dotted names to values read as if written in the
    file. Returns the values, nested as ``_DEFAULTS`` is, and the dotted
    names of the defaults applied, in ``_DEFAULTS``'s order.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    unknown = sorted(set(raw) - set(_DEFAULTS), key=str)
    if unknown:
        raise ConfigError(f"unknown top-level key(s) {unknown}")
    values: dict = {}
    defaulted: list[str] = []

    def read(block: dict, key: str, default, name: str):
        if name not in overrides and key not in block:
            defaulted.append(name)
        value = _read(overrides.get(name, block.get(key, default)), default, name)
        if name in _RULES and not _RULES[name][0](value):
            raise ConfigError(_RULES[name][1], field=name)
        return value

    for key, default in _DEFAULTS.items():
        if not isinstance(default, dict):
            values[key] = read(raw, key, default, key)
            continue
        section = {} if raw.get(key) is None else raw[key]
        if not isinstance(section, dict):
            raise ConfigError("section must be a mapping", field=key)
        unknown = sorted(set(section) - set(default), key=str)
        if unknown:
            raise ConfigError(f"unknown key(s) {unknown}", field=key)
        values[key] = {
            sub: read(section, sub, sub_default, f"{key}.{sub}")
            for sub, sub_default in default.items()
        }
    if values["mask"]["breakpoints"] is None:
        values["mask"]["breakpoints"] = default_emission_mask().breakpoints
    return values, defaulted


def _build(section: str, cls, **values):
    """A section's dataclass, its ValidationError named by the section's field."""
    try:
        return cls(**values)
    except ValidationError as exc:
        field = section if exc.field is None else f"{section}.{exc.field}"
        raise ConfigError(str(exc), field=field) from exc


def config_from_dict(
    raw: dict,
    seed_override: int | None = None,
    leakage_levels: tuple[float, ...] | None = None,
) -> ScenarioConfig:
    """Validate a parsed config mapping and build the resolved ScenarioConfig.

    ``_resolve`` reads every value once, by the kind of its default, and
    applies the single-field range rules; this applies the cross-field rules
    and the load-time probes and builds each section's dataclass. The config
    hash is taken of the values read, so a number field written ``12``
    hashes as ``12.0`` does.

    ``leakage_levels`` and ``seed_override`` (seeds N, N + 1, N + 2), when
    given, replace the mapping's values as if they were written in it: they
    are validated, hashed and not listed as defaulted.
    """
    overrides: dict = {}
    if leakage_levels is not None:
        overrides["leakage_levels"] = leakage_levels
    if seed_override is not None:
        for offset, name in enumerate(("nature", "obs_noise", "init")):
            overrides[f"seeds.{name}"] = int(seed_override) + offset
    values, defaulted = _resolve(raw, overrides)

    levels = values["leakage_levels"]
    for a, b in zip(levels, levels[1:]):
        if b <= a:
            raise ConfigError("must be sorted strictly ascending", field="leakage_levels")
        if f"{a:g}" == f"{b:g}":  # each row is labelled with its level's %g form
            raise ConfigError(
                f"levels {a!r} and {b!r} share the row label {a:g}", field="leakage_levels"
            )
    seeds = Seeds(**values["seeds"])
    link = _build("link", LinkBudget, **values["link"])
    antenna = _build("antenna", AntennaModel, **values["antenna"])
    mask = _build("mask", EmissionMask, **values["mask"])
    if values["leakage_interpretation"] == "per_device":
        # The leaked fraction depends on the mask alone, whatever the level, and
        # a segment's integral past the largest float raises OverflowError.
        try:
            fraction = aci_leakage_fraction(mask, AGGRESSOR_CHANNEL, VICTIM_CHANNEL)
        except (OverflowError, ValidationError) as exc:
            raise ConfigError(f"no leaked fraction: {exc}", field="mask.breakpoints") from exc
        if not 0.0 <= fraction <= 1.0:  # NaN included
            raise ConfigError(f"leaks {fraction:.3g} times its in-band power", field="mask.breakpoints")
    field_values = dict(values["field"])
    density_class = field_values.pop("density_class")
    preset = _DENSITY_COUNTS[density_class]
    if preset is not None:
        if "field.count" not in defaulted:
            raise ConfigError(
                f"density_class {density_class} sets the count ({preset}); "
                "omit count or use density_class custom",
                field="field.count",
            )
        field_values["count"] = preset
    field = _build("field", TransmitterField, **field_values)
    mapping = _build("forward", ColumnMapping, **values["forward"])
    bias = _build("bias", BiasModel, **values["bias"])

    model_values = dict(values["model"])
    grid_size = model_values.pop("grid_size")
    if values["ensemble_size"] * grid_size > MAX_ENSEMBLE_CELLS:
        raise ConfigError(
            f"{values['ensemble_size']} members on {grid_size} cells exceed "
            f"{MAX_ENSEMBLE_CELLS} member-cells; use fewer members or a smaller grid",
            field="ensemble_size",
        )
    if (len(levels) + 1) * values["ensemble_size"] * grid_size > MAX_CASE_CELLS:
        raise ConfigError(
            f"{len(levels) + 1} rows of {values['ensemble_size']} members on {grid_size} cells "
            f"exceed {MAX_CASE_CELLS} case-cells; use fewer levels or members, or a smaller grid",
            field="leakage_levels",
        )
    params = _build("model", ModelParams, **model_values)
    forecast_length = values["forecast_length"]
    steps = forecast_length / params.dt
    if not 0.5 < steps <= MAX_SPINUP_STEPS:  # before rounding, which inf cannot take
        raise ConfigError(
            f"must span 1 to {MAX_SPINUP_STEPS} steps of dt {params.dt:g}, got {steps:.7g}",
            field="forecast_length",
        )
    forecast_steps = round(steps)
    if abs(steps - forecast_steps) > 1e-9 * steps:
        raise ConfigError(
            f"must be a whole number of model time steps (dt {params.dt:g}, got {steps:.6g})",
            field="forecast_length",
        )
    workspace = Workspace(grid_size, params)  # both probes step on it
    try:
        probe = nature_run(workspace, seeds.nature, _TIME_STEP_PROBE_STEPS).final
    except ModelBlowUpError as exc:
        raise ConfigError(
            f"dt {params.dt:g} is unstable: {exc}; {_REDUCE_DT}", field="model.dt"
        ) from exc
    count, locations = values["observations"]["count"], values["observations"]["locations"]
    if locations is None:
        try:
            locations = default_obs_locations(grid_size, count)
        except ValidationError as exc:
            raise ConfigError(str(exc), field="observations.count") from exc
    else:
        if not locations or any(not 0 <= loc < grid_size for loc in locations):
            raise ConfigError(
                "must be a non-empty list of model grid indices", field="observations.locations"
            )
        # The locations set the count; a count written beside them must agree.
        if "observations.count" not in defaulted and count != len(locations):
            raise ConfigError(
                f"observations.locations gives {len(locations)} locations; "
                f"omit count or set it to {len(locations)}",
                field="observations.count",
            )
    # d/dq is kappa (t_atm - t_surf) w: NaN where that product overflows and w
    # is 0, which leaves the analysis no finite gradient.
    operator = RadianceOperator(mapping, bias, locations, grid_size)
    with np.errstate(over="ignore", invalid="ignore"):
        jacobian = operator.jacobians(probe.vector, operator.bias_background)[0]
    if not np.isfinite(jacobian).all():
        message = f"{mapping.opacity_coefficient:g} gives a non-finite moisture sensitivity"
        raise ConfigError(message, field="forward.opacity_coefficient")

    cov = values["covariances"]
    config = ScenarioConfig(
        leakage_levels=levels,
        leakage_interpretation=values["leakage_interpretation"],
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
        spinup_steps=values["spinup_steps"],
        forecast_length=forecast_length,
        forecast_steps=forecast_steps,
        ensemble_size=values["ensemble_size"],
        background_noise_std=values["background_noise_std"],
        hold_bias_fixed=values["hold_bias_fixed"],
        defaulted_fields=tuple(defaulted),
        config_hash=hashlib.sha256(
            json.dumps(values, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest(),
    )
    # Forecasts start from backgrounds perturbed from the truth, which the
    # time-step probe never sees: perturb its final state as member 0's
    # background is perturbed and step that as far again. A perturbation
    # too large to hold is rejected here too.
    try:
        with np.errstate(over="ignore"):
            background = _member_background(config, probe, 0)
        integrate(background, _TIME_STEP_PROBE_STEPS, workspace)
    except (ValidationError, ModelBlowUpError) as exc:
        raise ConfigError(
            f"member 0's background (sd {config.background_noise_std:g}) is unstable: {exc}",
            field="background_noise_std",
        ) from exc
    # Every level must give a finite noise temperature and a brightness
    # error whose observation cost n_obs (delta_tb / sigma_o)^2 is finite, or
    # the run would fail on its first observation or its first analysis.
    for level in levels:
        noise_k, delta_tb = leakage_chain(config, level)
        scaled = delta_tb / config.obs_error_stddev_k
        if not (math.isfinite(noise_k) and math.isfinite(len(locations) * (scaled * scaled))):
            raise ConfigError(
                f"level {level:g} dBW gives a noise temperature of {noise_k:.3g} K and a "
                f"brightness error of {delta_tb:.3g} K, whose observation cost is not finite",
                field="leakage_levels",
            )
    return config


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader, also reading a YAML 1.2 float with an exponent
    (``1e-3``, ``1E3``, ``1.0e9``), which YAML 1.1 reads as text, as a number.
    A quoted one stays text. A key written twice in one mapping is an error
    at its second mark, not a silent override; a merge key (``<<``) still
    yields to the keys written beside it."""

    def compose_mapping_node(self, anchor):
        # Checked as composed, before any merge key is flattened into a mapping.
        node = super().compose_mapping_node(anchor)
        seen = set()
        for key, _ in node.value:
            if not isinstance(key, yaml.ScalarNode) or key.tag == "tag:yaml.org,2002:merge":
                continue
            if (key.tag, key.value) in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key.value!r}", key.start_mark,
                )
            seen.add((key.tag, key.value))
        return node


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def load_config(
    path: str,
    seed_override: int | None = None,
    leakage_levels: tuple[float, ...] | None = None,
) -> ScenarioConfig:
    """Parse and validate a YAML scenario config file (see ``config_from_dict``
    for the two overrides)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_Loader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"could not read config {path}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:
        # PyYAML raises ValueError where a scalar it has matched cannot be
        # built: an integer past Python's digit limit, or a date like 2020-13-01.
        line = None
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise ConfigError(f"could not parse config: {exc}", line=line) from exc
    return config_from_dict(
        {} if raw is None else raw, seed_override=seed_override, leakage_levels=leakage_levels
    )


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
    noise = config.background_noise_std * np.array(rng.normals(truth.vector.shape[0]))
    return ModelState.from_vector(truth.vector + noise)


def run_scenario(
    config: ScenarioConfig,
    on_iteration: Callable[[int, int, int, float, float], None] | None = None,
) -> ScenarioReport:
    """Execute baseline plus every leakage level; difference the forecasts.

    The cases, (row, member) in config order with the baseline row first,
    go through four stages. 1. Set-up: one RK4 workspace, the truth spun
    up on it, one observation operator, the truth's noisy observations
    synthesized once, one observations array per row shifted by its
    brightness error (the baseline's is 0), and each member's background.
    2. Analyses: one pass analyses every case; ``on_iteration(row, member,
    iteration, cost, gradient_norm)``, if given, hears each accepted step.
    3. Forecasts: one pass forecasts every analysis on that workspace into
    one (rows, 2, members, cells) array of precipitation and near-surface
    temperature; a forecast is dropped once that is read.
    4. Reduction: one reduction over that array's contiguous axes averages
    each member's max and RMS difference from the baseline over members,
    bit for bit as if each member's vector were reduced alone.

    A failing case raises a ``ScenarioExecutionError`` naming its row and
    member, and a forecast's blow-up its suspects. Truth observations that
    cannot be synthesized, or a setting that rounds a level's brightness
    error away, raise a ``ConfigError`` naming the field.
    """
    # Stage 1: set-up.
    workspace = Workspace(config.grid_size, config.model_params)
    try:
        truth = nature_run(workspace, config.seeds.nature, config.spinup_steps).final
    except ModelBlowUpError as exc:  # past the load-time probe's steps
        raise ScenarioExecutionError(f"nature run spin-up: {exc}; {_REDUCE_DT}") from exc
    operator = RadianceOperator(config.mapping, config.bias, config.obs_locations, config.grid_size)
    try:
        observed = synthesize_observations(
            truth, operator, config.seeds.obs_noise, config.obs_error_stddev_k
        )
    except ValidationError as exc:
        # Load cannot see the spun-up truth's columns: a surface offset that
        # a cell's temperature undercuts, or a bias correction that overflows.
        section = {"surface_offset_k": "forward", "coefficients": "bias"}.get(exc.field)
        raise ConfigError(
            f"the truth's observations: {exc}", field=section and f"{section}.{exc.field}"
        ) from exc
    levels = (None, *config.leakage_levels)
    chains = [(0.0, 0.0), *(leakage_chain(config, level) for level in levels[1:])]
    # The observations may lose a brightness error below their resolution,
    # as the null experiment's (-300 dBW, about 3e-29 K) is lost, but only if
    # the truth's values under the shipped forward settings and no bias lose
    # it too. Else the config's settings are applied to those in turn; the
    # first under which they lose it is named, or if none, the noise's stddev.
    top = np.max(np.abs(observed))
    lost = [(t, lv) for lv, (_, t) in zip(levels, chains) if 0 < t < 1e3 * np.spacing(top)]
    if lost:
        delta_tb, level = max(lost)
        mapping, bias = config.mapping, operator.bias_background
        none, offset = np.zeros_like(bias), ColumnMapping(surface_offset_k=mapping.surface_offset_k)
        for field, forward, beta in (
            (None, ColumnMapping(), none),
            ("forward.surface_offset_k", offset, none),
            ("forward.atmosphere_temperature_k", mapping, none),
            ("bias.constant_coefficient_k", mapping, np.concatenate([bias[:1], none[1:]])),
            ("bias.coefficients", mapping, bias),
        ):
            setting = RadianceOperator(forward, config.bias, config.obs_locations, config.grid_size)
            if delta_tb < 1e3 * np.spacing(np.max(np.abs(setting.values(truth.vector, beta)))):
                break
        else:
            field = "covariances.observation_stddev_k"
        if field is not None:
            raise ConfigError(
                f"the observations reach {top:.3g} K, where level {level:g} dBW's brightness "
                f"error of {delta_tb:.3g} K rounds away",
                field=field,
            )
    observations = [observed + delta_tb for _, delta_tb in chains]
    members = config.ensemble_size
    backgrounds = [_member_background(config, truth, m) for m in range(members)]
    cases = [(r, m) for r in range(len(levels)) for m in range(members)]
    row_names = ["baseline", *(f"level {level:g} dBW" for level in levels[1:])]

    # Stage 2: analyses.
    results = []
    for r, m in cases:
        try:
            problem = build_problem(
                backgrounds[m], operator, observations[r], state_variance=config.state_variance,
                bias_variance=config.bias_variance, obs_stddev_k=config.obs_error_stddev_k,
            )
            trace = None if on_iteration is None else partial(on_iteration, r, m)
            result = minimize(problem, hold_bias_fixed=config.hold_bias_fixed, on_iteration=trace)
            results.append(result)
        except Exception as exc:
            raise ScenarioExecutionError(f"{row_names[r]}, member {m}: {exc}") from exc

    # Stage 3: forecasts.
    fields = np.empty((len(levels), 2, members, config.grid_size))
    for (r, m), result in zip(cases, results):
        try:
            analysis = ModelState.from_vector(result.analysis_state)
            fields[r, :, m] = diagnostics(integrate(analysis, config.forecast_steps, workspace))
        except ModelBlowUpError as exc:
            # A level is suspect only through its brightness error: the member's
            # baseline forecast, from the same background and dt, did not blow up.
            suspects = (
                f"; {_REDUCE_DT} (forecast suspects: model.dt {config.model_params.dt:g}, "
                f"background_noise_std {config.background_noise_std:g})"
                if r == 0
                else f" (forecast suspects: leakage_levels {levels[r]:g}, "
                f"brightness error {chains[r][1]:.3g} K)"
            )
            raise ScenarioExecutionError(f"{row_names[r]}, member {m}: {exc}{suspects}") from exc
        except Exception as exc:
            raise ScenarioExecutionError(f"{row_names[r]}, member {m}: {exc}") from exc

    # Stage 4: reduction. Each member's max and RMS over the grid, stacked as
    # (rows, fields, [max, rms], members), then averaged over the members.
    diffs = fields - fields[0]
    spread = np.stack((np.max(np.abs(diffs), axis=3), np.sqrt(np.mean(diffs**2, axis=3))), axis=2)
    divergence = spread.mean(axis=3).reshape(len(levels), 4)
    costs = np.reshape([result.final_cost for result in results], (len(levels), members))
    rows = (
        LevelMetrics(
            level, noise_k, delta_tb, *map(float, divergence[r]), float(costs[r].mean()),
            all(result.converged for result in results[r * members : (r + 1) * members]),
        )
        for r, (level, (noise_k, delta_tb)) in enumerate(zip(levels, chains))
    )
    return ScenarioReport(config, tuple(rows))


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _row_cells(row: LevelMetrics) -> list[str]:
    """A report row's CSV cells: its fields in declaration order."""
    _, *numbers, converged = (getattr(row, f.name) for f in fields(row))
    return [row.label, *map(_fmt, numbers), "true" if converged else "false"]


def emit_csv(report: ScenarioReport, path: str) -> None:
    """Write the report as CSV: a hash comment, the header, baseline row,
    then one row per leakage level in config order. Numbers carry 9
    significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={report.config.config_hash}\n")
        fh.write(CSV_HEADER + "\n")
        for row in report.rows:
            fh.write(",".join(_row_cells(row)) + "\n")


def emit_summary(report: ScenarioReport, stream: TextIO) -> None:
    """Human-readable table of the same rows, plus provenance."""
    config = report.config
    columns = CSV_HEADER.split(",")
    table = [columns] + [_row_cells(row) for row in report.rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(columns))]
    stream.write(f"config hash: {config.config_hash}\n")
    stream.write(
        f"ensemble size: {config.ensemble_size}, "
        f"forecast length: {config.forecast_length:g} model time units\n"
    )
    if config.defaulted_fields:
        stream.write(f"defaults applied: {', '.join(config.defaulted_fields)}\n")
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


def noise_table(levels_dbw, link: LinkBudget, antenna: AntennaModel) -> list[tuple[float, ...]]:
    """Induced-noise curve: one row per leakage level (aggregate dBW), in
    ``NOISE_TABLE_HEADER``'s column order."""
    return [(level, *_aggregate_chain(level, link, antenna)) for level in levels_dbw]


def emit_noise_table_csv(rows: list[tuple[float, ...]], stream: TextIO) -> None:
    stream.write(NOISE_TABLE_HEADER + "\n")
    for row in rows:
        stream.write(",".join(map(_fmt, row)) + "\n")
