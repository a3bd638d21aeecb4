"""Radiance observations: the 23.8 GHz operator, its bias correction, and
the synthetic-truth harness around them.

A grid cell becomes a single column: its surface temperature is the cell's
temperature plus the reporting offset, its atmosphere temperature is a fixed
constant, and its water vapor is the cell's moisture floored at zero. The
operator blends surface and atmosphere emission through a water-vapor
opacity term:

    T_b(q) = T_surf * exp(-kappa q) + T_atm * (1 - exp(-kappa q))

which is transparent at q = 0, saturates to the atmosphere temperature as
the column moistens, and is monotone in q in between. The bias-corrected
operator adds a constant coefficient plus a linear combination of named
predictors evaluated per observation, at its scan position (the grid cell
it looks at). On top of that:

* ``synthesize_observations`` builds observation values from a truth state,
  with seeded Gaussian noise, one ``bias_corrected_forward`` call per
  observation. An observation is its value and its location (the grid cell,
  which is also its scan position); values are one array, locations one
  tuple.
* ``RadianceOperator`` evaluates the same operator, vectorized, for the
  variational analysis over the flattened control vector
  [temperature_field, moisture_field]. One is built per scenario, and
  ``build_problem`` wraps it with each analysis's background, observed
  values and covariances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assim import AssimilationProblem
from .errors import ValidationError
from .model import ModelState, TEMPERATURE_REPORT_OFFSET_K
from .rng import SeededRng


@dataclass(frozen=True)
class PredictorDef:
    """A named bias predictor with its surface-temperature slope.

    ``value(t_surf, q, scan)`` evaluates the predictor from a column's
    surface temperature, water vapor and scan position: on floats for one
    observation, as synthesis does, or on arrays for a whole observation
    set, as the analysis operator does. ``d_surface_temperature`` is its
    derivative with respect to the column surface temperature, needed by
    the analytic assimilation gradient; no predictor depends on the water
    vapor. A predictor whose slope is zero therefore depends on the scan
    position alone, and the analysis operator evaluates it once.
    """

    name: str
    value: Callable
    d_surface_temperature: float = 0.0


PREDICTOR_REGISTRY: dict[str, PredictorDef] = {
    p.name: p
    for p in (
        PredictorDef(
            "surface_temperature", lambda t_surf, q, scan: t_surf, d_surface_temperature=1.0
        ),
        PredictorDef("scan_position", lambda t_surf, q, scan: scan),
    )
}


@dataclass(frozen=True)
class BiasModel:
    """Constant plus per-predictor linear bias correction.

    Predictor names are resolved against the registry at construction, so a
    typo fails at load time rather than mid-assimilation.
    """

    constant_coefficient_k: float = 0.0
    coefficients: tuple[float, ...] = ()
    predictors: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        object.__setattr__(self, "predictors", tuple(self.predictors))
        if len(self.coefficients) != len(self.predictors):
            raise ValidationError(
                f"{len(self.coefficients)} coefficients for {len(self.predictors)} predictors"
            )
        unknown = [n for n in self.predictors if n not in PREDICTOR_REGISTRY]
        if unknown:
            raise ValidationError(
                f"unknown predictor name(s) {unknown}; "
                f"registered: {sorted(PREDICTOR_REGISTRY)}",
                "predictors",
            )
        values = (self.constant_coefficient_k, *self.coefficients)
        if not all(math.isfinite(v) for v in values):
            raise ValidationError("bias coefficients must be finite")

    @property
    def n_predictors(self) -> int:
        return len(self.predictors)

    def resolved(self) -> tuple[PredictorDef, ...]:
        return tuple(PREDICTOR_REGISTRY[n] for n in self.predictors)


@dataclass(frozen=True)
class ColumnMapping:
    """Grid cell to single column, plus the operator's opacity.

    ``opacity_coefficient`` is the opacity per unit column water vapor,
    (kg/m^2)^-1; the default 0.05 puts typical mid-latitude columns (5 to
    50 kg/m^2) in the curved part of the operator. These fields are the
    config's ``forward`` section, defaults included.
    """

    opacity_coefficient: float = 0.05
    surface_offset_k: float = TEMPERATURE_REPORT_OFFSET_K
    atmosphere_temperature_k: float = 250.0

    def __post_init__(self):
        if self.opacity_coefficient <= 0:
            raise ValidationError("opacity coefficient must be positive", "opacity_coefficient")
        # A column's surface temperature is this offset plus its cell's state
        # temperature; ``bias_corrected_forward`` checks that sum per column.
        if self.surface_offset_k <= 0:
            raise ValidationError("surface offset must be positive", "surface_offset_k")
        if self.atmosphere_temperature_k <= 0:
            raise ValidationError(
                "atmosphere temperature must be positive", "atmosphere_temperature_k"
            )


def bias_corrected_forward(
    mapping: ColumnMapping,
    bias: BiasModel,
    temperature_value: float,
    moisture_value: float,
    scan_position: int,
) -> float:
    """Brightness temperature of one observation, in kelvin: the operator at
    the column of a cell holding these temperature and moisture values, plus
    the bias correction beta_0 + sum(beta_i p_i) at ``scan_position``.

    Raises ``ValidationError`` when the column's surface temperature is not
    positive: ``ColumnMapping`` rejects an offset <= 0, and this catches a
    positive ``surface_offset_k`` that the cell's temperature undercuts.
    """
    q = max(0.0, moisture_value)
    t_surf = mapping.surface_offset_k + temperature_value
    if t_surf <= 0:
        raise ValidationError("column temperatures must be positive")
    correction = bias.constant_coefficient_k
    for coeff, pdef in zip(bias.coefficients, bias.resolved()):
        correction += coeff * pdef.value(t_surf, q, scan_position)
    w = math.exp(-mapping.opacity_coefficient * q)
    return t_surf * w + mapping.atmosphere_temperature_k * (1.0 - w) + correction


def default_obs_locations(grid_size: int, count: int) -> tuple[int, ...]:
    """Evenly thinned network: ``count`` cells spread over the grid."""
    if count < 1 or count > grid_size:
        raise ValidationError("observation count must be in [1, grid size]")
    stride = grid_size // count
    return tuple(range(0, stride * count, stride))


def synthesize_observations(
    truth: ModelState,
    mapping: ColumnMapping,
    bias_truth: BiasModel,
    obs_error_seed: int,
    obs_locations: tuple[int, ...],
    error_stddev_k: float,
) -> np.ndarray:
    """Brightness temperatures a radiometer would report over the truth state.

    Per location: operator value at the truth column, plus the true bias,
    plus seeded Gaussian noise of ``error_stddev_k``. Returns a read-only
    array of values, one per location, all finite.
    """
    n = truth.grid_size
    if any(not 0 <= loc < n for loc in obs_locations):
        raise ValidationError("observation locations must index the model grid")
    if not error_stddev_k > 0:
        raise ValidationError("observation error stddev must be positive")
    rng = SeededRng(obs_error_seed)
    temperature, moisture = truth.temperature_field, truth.moisture_field
    values = np.array(
        [
            bias_corrected_forward(
                mapping, bias_truth, float(temperature[loc]), float(moisture[loc]), loc
            )
            + rng.normal(0.0, error_stddev_k)
            for loc in obs_locations
        ],
        dtype=float,
    )
    if not np.all(np.isfinite(values)):
        raise ValidationError("observation value must be finite")
    values.setflags(write=False)
    return values


@dataclass(frozen=True, eq=False)
class RadianceOperator:
    """Observation operator over the flattened control [T-field, q-field].

    The bias part of the control is [beta_0, beta_1, ...]; its Jacobian
    column for beta_0 is one and the others are the predictor values.
    Moisture below zero is floored before evaluating the column (matching
    the model's own clipping), with zero sensitivity there. Each
    observation's location is also its scan position. Evaluation is
    vectorized over observations, predictors included.

    It depends on the mapping, the bias template, the locations and the
    grid size alone, so ``run_scenario`` builds one per scenario and every
    analysis of the scenario shares it. Everything that does not depend on
    the control is fixed at construction: the predictors that vary with the
    surface temperature (those with a nonzero slope), one gather index
    ``[locs, grid_size + locs]`` that reads both fields in one call, the
    Jacobian's nonzero positions, and the mapping's constants (surface
    offset, atmosphere temperature, opacity and its negation) together with
    zero and one, each as a vector of length n_obs. A predictor with a zero
    slope depends on the scan position alone, so its column is filled once,
    in a predictor matrix and in a bias Jacobian template whose first column
    is ones; ``values`` and ``jacobians`` write only the surface-temperature
    columns. A vector operand gives the same bits as the scalar it holds
    and costs less per numpy call. ``jacobians`` skips the term c * 0.0 of
    a zero predictor slope: for a finite coefficient c it changes no value
    other than -0.0, and a derivative is -0.0 only where exp(-kappa q)
    underflows to zero. It zeroes the moisture sensitivity where the raw
    moisture is <= 0, which equals keeping it where the moisture is > 0 for
    every moisture but NaN. Within those limits every result is
    bit-identical to the same arithmetic on scalar constants.
    """

    mapping: ColumnMapping
    bias_template: BiasModel
    obs_locations: tuple[int, ...]
    grid_size: int

    def __post_init__(self):
        if any(not 0 <= loc < self.grid_size for loc in self.obs_locations):
            raise ValidationError("observation locations must index the model grid")
        defs = self.bias_template.resolved()
        locs = np.array(self.obs_locations, dtype=int)
        n_obs = len(locs)
        row_starts = np.arange(n_obs) * self.n_state

        def full(value: float) -> np.ndarray:
            return np.full(n_obs, value, dtype=float)

        zeros, scan = full(0.0), locs.astype(float)
        # Predictor values by column, with the constant ones filled in.
        predictors = np.empty((n_obs, len(defs)))
        for i, p in enumerate(defs):
            if p.d_surface_temperature == 0.0:
                predictors[:, i] = p.value(zeros, zeros, scan)
        jac_bias = np.empty((n_obs, self.n_bias))
        jac_bias[:, 0] = 1.0
        jac_bias[:, 1:] = predictors
        constants = {
            # (column, predictor) for every predictor with a nonzero slope.
            "_varying": tuple(
                (i, p) for i, p in enumerate(defs) if p.d_surface_temperature != 0.0
            ),
            "_gather": np.concatenate([locs, self.grid_size + locs]),
            "_scan": scan,
            # Positions of d/dT and d/dq in the row-major (n_obs, n_state) Jacobian.
            "_flat_temp": row_starts + locs,
            "_flat_moist": row_starts + self.grid_size + locs,
            "_predictors": predictors,
            "_jac_bias": jac_bias,
            "_surface_offset": full(self.mapping.surface_offset_k),
            "_t_atm": full(self.mapping.atmosphere_temperature_k),
            "_kappa": full(self.mapping.opacity_coefficient),
            "_neg_kappa": full(-self.mapping.opacity_coefficient),
            "_zeros": zeros,
            "_ones": full(1.0),
        }
        for name, value in constants.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_state(self) -> int:
        return 2 * self.grid_size

    @property
    def n_bias(self) -> int:
        return 1 + self.bias_template.n_predictors

    def _columns(self, state: np.ndarray):
        """(surface temperature, floored moisture, raw moisture) at the observed cells."""
        cells = state[self._gather]
        n_obs = len(self._scan)
        q_raw = cells[n_obs:]
        return self._surface_offset + cells[:n_obs], np.maximum(self._zeros, q_raw), q_raw

    def _fill_varying(self, t_surf, q, template: np.ndarray, first: int) -> np.ndarray:
        """A copy of ``template`` with the varying predictors written as its
        columns from ``first`` on."""
        out = template.copy()
        for i, pdef in self._varying:
            out[:, first + i] = pdef.value(t_surf, q, self._scan)
        return out

    def values(self, state: np.ndarray, bias: np.ndarray) -> np.ndarray:
        t_surf, q, _ = self._columns(state)
        w = np.multiply(self._neg_kappa, q)
        np.exp(w, w)
        # t_surf w + t_atm (1 - w), the second term formed in w's buffer.
        h = np.multiply(t_surf, w)
        np.subtract(self._ones, w, w)
        np.multiply(self._t_atm, w, w)
        np.add(h, w, h)
        pred = self._fill_varying(t_surf, q, self._predictors, 0)
        # ndarray.dot costs less per call than @. With one observation the two
        # can differ in the sign of a zero, which the add loses: h + beta_0 is
        # never -0.0, because h is not (t_atm > 0).
        np.add(h, bias[0], h)
        np.add(h, pred.dot(bias[1:]), h)
        return h

    def jacobians(self, state: np.ndarray, bias: np.ndarray):
        t_surf, q, q_raw = self._columns(state)
        w = np.multiply(self._neg_kappa, q)
        np.exp(w, w)
        # kappa (t_atm - t_surf) w, zero where the column is dry.
        d_dmoist = np.subtract(self._t_atm, t_surf)
        np.multiply(self._kappa, d_dmoist, d_dmoist)
        np.multiply(d_dmoist, w, d_dmoist)
        np.putmask(d_dmoist, q_raw <= self._zeros, 0.0)
        d_dtemp = w
        for i, pdef in self._varying:
            d_dtemp = d_dtemp + bias[1 + i] * pdef.d_surface_temperature

        jac_state = np.zeros((len(q), self.n_state))
        flat = jac_state.reshape(-1)
        flat[self._flat_temp] = d_dtemp
        flat[self._flat_moist] = d_dmoist
        return jac_state, self._fill_varying(t_surf, q, self._jac_bias, 1)


def build_problem(
    background: ModelState,
    operator: RadianceOperator,
    obs_values: np.ndarray,
    state_variance: float,
    bias_variance: float,
    obs_stddev_k: float,
) -> AssimilationProblem:
    """Assemble the analysis problem for one cycle on ``operator`` with
    diagonal covariances: ``state_variance`` per state value,
    ``bias_variance`` per coefficient and ``obs_stddev_k`` squared per
    observation. The background bias is the operator's bias template.

    The operator holds everything that stays fixed across a scenario's
    analyses, so ``run_scenario`` builds it once and passes it to every
    call; a problem adds only the background, the observed values and the
    covariances."""
    template = operator.bias_template
    x_b = background.vector.copy()
    beta_b = np.array([template.constant_coefficient_k, *template.coefficients])
    return AssimilationProblem(
        background_state=x_b,
        background_bias=beta_b,
        state_variances=np.full(len(x_b), state_variance),
        bias_variances=np.full(len(beta_b), bias_variance),
        obs_variances=np.full(len(obs_values), obs_stddev_k**2),
        obs_values=obs_values,
        operator=operator,
    )


def state_vector_to_model(vector: np.ndarray, grid_size: int) -> ModelState:
    """Flattened analysis state back to a model state; moisture floored at zero."""
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (2 * grid_size,):
        raise ValidationError(
            f"state vector length {vector.shape} does not match grid size {grid_size}"
        )
    temperature = vector[:grid_size]
    moisture = np.maximum(0.0, vector[grid_size:])
    return ModelState(temperature, moisture)
