"""Synthetic-truth harness: model state to radiance observations and back.

Ties the toy model to the radiance operator. A ``ColumnMapping`` says how a
grid cell becomes a single-column atmosphere (surface temperature is the
cell value plus the reporting offset, the effective atmosphere temperature
is a fixed constant, moisture is the cell's moisture). On top of that:

* ``synthesize_observations`` builds observation values from a truth state,
  with seeded Gaussian noise and an optional uniform brightness-temperature
  perturbation, the knob the interference chain drives. An observation is
  its value and its location (the grid cell, which is also its scan
  position); values are one array, locations one tuple.
* ``RadianceOperator`` exposes the same mapping to the variational analysis
  over the flattened control vector [temperature_field, moisture_field].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assim import AssimilationProblem
from .errors import ValidationError
from .forward import BiasModel, ColumnState, bias_corrected_forward
from .model import ModelState, TEMPERATURE_REPORT_OFFSET_K
from .rng import SeededRng


@dataclass(frozen=True)
class ColumnMapping:
    """Grid cell to single-column state, plus the operator's opacity.

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

    def column(self, temperature_value: float, moisture_value: float) -> ColumnState:
        return ColumnState(
            water_vapor_kg_m2=max(0.0, moisture_value),
            surface_temperature_k=self.surface_offset_k + temperature_value,
            atmosphere_temperature_k=self.atmosphere_temperature_k,
        )

    def column_at(self, state: ModelState, location: int) -> ColumnState:
        return self.column(
            float(state.temperature_field[location]), float(state.moisture_field[location])
        )


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
    delta_tb_k: float,
    obs_locations: tuple[int, ...],
    error_stddev_k: float,
) -> np.ndarray:
    """Brightness temperatures a radiometer would report over the truth state.

    Per location: operator value at the truth column, plus the true bias,
    plus seeded Gaussian noise of ``error_stddev_k``, plus the uniform
    perturbation ``delta_tb_k`` (applied to every observation, as a field
    of emitters spread under the whole footprint would). Returns a
    read-only array of values, one per location, all finite.
    """
    n = truth.grid_size
    if any(not 0 <= loc < n for loc in obs_locations):
        raise ValidationError("observation locations must index the model grid")
    if not error_stddev_k > 0:
        raise ValidationError("observation error stddev must be positive")
    rng = SeededRng(obs_error_seed)
    values = []
    for loc in obs_locations:
        column = mapping.column_at(truth, loc)
        value = bias_corrected_forward(column, bias_truth, loc, mapping.opacity_coefficient)
        value += rng.normal(0.0, error_stddev_k)
        value += delta_tb_k
        values.append(value)
    values = np.array(values, dtype=float)
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
    to zero. Within those limits every result is bit-identical to the
    scalar form.
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
            "_moist_slopes": tuple(
                (i + 1, p.d_water_vapor) for i, p in enumerate(defs) if p.d_water_vapor != 0.0
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
            out[:, i] = pdef.vector_value(t_surf, q, self._scan)
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
        for index, slope in self._moist_slopes:
            d_dmoist = d_dmoist + bias[index] * slope
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
