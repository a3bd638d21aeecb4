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
  [temperature_field, moisture_field].
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
    vapor.
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
                f"registered: {sorted(PREDICTOR_REGISTRY)}"
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
            raise ValidationError("opacity coefficient must be positive")
        if self.atmosphere_temperature_k <= 0:
            raise ValidationError("atmosphere temperature must be positive")


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
    positive, as a large negative ``surface_offset_k`` makes it.
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

    Everything that does not depend on the control is fixed at
    construction: the resolved predictors and their nonzero slopes, the
    scan positions, one gather index ``[locs, grid_size + locs]`` that reads
    both fields in one call, the Jacobian's nonzero positions, a bias
    Jacobian whose first column is already ones, and the mapping's
    constants (surface offset, atmosphere temperature, opacity and its
    negation) together with zero and one, each as a vector of length n_obs.
    A vector operand gives the same bits as the scalar it holds and costs
    less per numpy call. ``jacobians`` skips the term c * 0.0 of a zero
    predictor slope: for a finite coefficient c it changes no value other
    than -0.0, and a derivative is -0.0 only where exp(-kappa q) underflows
    to zero. Within those limits every result is bit-identical to the same
    arithmetic on scalar constants.
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
        jac_bias = np.zeros((n_obs, self.n_bias))
        jac_bias[:, 0] = 1.0

        def full(value: float) -> np.ndarray:
            return np.full(n_obs, value, dtype=float)

        constants = {
            "_defs": defs,
            # (index into bias, slope) for every nonzero predictor slope.
            "_temp_slopes": tuple(
                (i + 1, p.d_surface_temperature) for i, p in enumerate(defs)
                if p.d_surface_temperature != 0.0
            ),
            "_gather": np.concatenate([locs, self.grid_size + locs]),
            "_scan": locs.astype(float),
            # Positions of d/dT and d/dq in the row-major (n_obs, n_state) Jacobian.
            "_flat_temp": row_starts + locs,
            "_flat_moist": row_starts + self.grid_size + locs,
            "_jac_bias": jac_bias,
            "_surface_offset": full(self.mapping.surface_offset_k),
            "_t_atm": full(self.mapping.atmosphere_temperature_k),
            "_kappa": full(self.mapping.opacity_coefficient),
            "_neg_kappa": full(-self.mapping.opacity_coefficient),
            "_zeros": full(0.0),
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

    def _fill_predictors(self, t_surf, q, out: np.ndarray, first: int) -> np.ndarray:
        """Write the predictor values as the columns of ``out`` from ``first`` on."""
        for i, pdef in enumerate(self._defs, start=first):
            out[:, i] = pdef.value(t_surf, q, self._scan)
        return out

    def values(self, state: np.ndarray, bias: np.ndarray) -> np.ndarray:
        t_surf, q, _ = self._columns(state)
        w = np.exp(self._neg_kappa * q)
        h = t_surf * w + self._t_atm * (self._ones - w)
        pred = self._fill_predictors(t_surf, q, np.empty((len(q), len(self._defs))), 0)
        # ndarray.dot costs less per call than @. With one observation the two
        # can differ in the sign of a zero, which the add loses: h + beta_0 is
        # never -0.0, because h is not (t_atm > 0).
        return h + bias[0] + pred.dot(bias[1:])

    def jacobians(self, state: np.ndarray, bias: np.ndarray):
        t_surf, q, q_raw = self._columns(state)
        w = np.exp(self._neg_kappa * q)
        d_dmoist = self._kappa * (self._t_atm - t_surf) * w
        d_dtemp = w
        for index, slope in self._temp_slopes:
            d_dtemp = d_dtemp + bias[index] * slope
        d_dmoist = np.where(q_raw > self._zeros, d_dmoist, self._zeros)

        jac_state = np.zeros((len(q), self.n_state))
        flat = jac_state.reshape(-1)
        flat[self._flat_temp] = d_dtemp
        flat[self._flat_moist] = d_dmoist
        jac_bias = self._fill_predictors(t_surf, q, self._jac_bias.copy(), 1)
        return jac_state, jac_bias


def build_problem(
    background: ModelState,
    background_bias: BiasModel,
    obs_values: np.ndarray,
    obs_locations: tuple[int, ...],
    mapping: ColumnMapping,
    state_variance: float,
    bias_variance: float,
    obs_stddev_k: float,
) -> AssimilationProblem:
    """Assemble the analysis problem for one cycle with diagonal covariances:
    ``state_variance`` per state value, ``bias_variance`` per coefficient and
    ``obs_stddev_k`` squared per observation."""
    n = background.grid_size
    x_b = background.vector.copy()
    beta_b = np.array(
        [background_bias.constant_coefficient_k, *background_bias.coefficients]
    )
    operator = RadianceOperator(
        mapping=mapping,
        bias_template=background_bias,
        obs_locations=tuple(obs_locations),
        grid_size=n,
    )
    return AssimilationProblem(
        background_state=x_b,
        background_bias=beta_b,
        state_variances=np.full(2 * n, state_variance),
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
