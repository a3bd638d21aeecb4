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
predictors (``PREDICTORS``) evaluated per observation, at its scan position
(the grid cell it looks at). On top of that:

* ``RadianceOperator`` evaluates it, vectorized over observations, on the
  flattened state vector [temperature_field, moisture_field] and the bias
  coefficients. One is built per scenario and is the scenario's only
  operator: ``synthesize_observations`` evaluates it at the truth and the
  true bias, and ``assim.build_problem`` wraps it with each analysis's
  background, observed values and covariances. The operator is read-only.
* ``OperatorWork`` is one caller's buffers for its calls: the columns at
  the last state evaluated, so that ``jacobians`` at the point ``values``
  just evaluated reuses them, and the Jacobian buffers ``jacobians`` fills.
  Each analysis makes one and passes it to every call; a call without one
  makes its own. A work serves one thread at a time.
* ``synthesize_observations`` builds observation values from a truth state
  with seeded Gaussian noise. An observation is its value and its location
  (the grid cell, which is also its scan position); values are one array,
  locations one tuple.
* ``bias_corrected_forward`` is the same operator on one observation's
  floats, the reference the vector form is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import ModelState, TEMPERATURE_REPORT_OFFSET_K
from .rng import SeededRng


#: Bias predictor names, evaluated per observation: the column's surface
#: temperature, and the observation's scan position (its grid cell). The
#: first has slope one in the surface temperature, the second slope zero;
#: neither depends on the water vapor.
PREDICTORS = ("surface_temperature", "scan_position")


@dataclass(frozen=True)
class BiasModel:
    """Constant plus per-predictor linear bias correction.

    Predictor names are checked against ``PREDICTORS`` at construction, so
    a typo fails at load time rather than mid-assimilation.
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
        unknown = [n for n in self.predictors if n not in PREDICTORS]
        if unknown:
            raise ValidationError(
                f"unknown predictor name(s) {unknown}; known: {sorted(PREDICTORS)}",
                "predictors",
            )
        values = (self.constant_coefficient_k, *self.coefficients)
        if not all(math.isfinite(v) for v in values):
            raise ValidationError("bias coefficients must be finite")

    @property
    def n_predictors(self) -> int:
        return len(self.predictors)


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
        # temperature; synthesis checks that sum per column.
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

    The scalar reference form of ``RadianceOperator.values``, which the
    tests check the vector form against; it agrees with it to rounding.
    Raises ``ValidationError`` when the column's surface temperature is not
    positive.
    """
    q = max(0.0, moisture_value)
    t_surf = mapping.surface_offset_k + temperature_value
    if t_surf <= 0:
        raise ValidationError("column temperatures must be positive")
    predictor = {"surface_temperature": t_surf, "scan_position": scan_position}
    correction = bias.constant_coefficient_k
    for coeff, name in zip(bias.coefficients, bias.predictors):
        correction += coeff * predictor[name]
    w = math.exp(-mapping.opacity_coefficient * q)
    return t_surf * w + mapping.atmosphere_temperature_k * (1.0 - w) + correction


def default_obs_locations(grid_size: int, count: int) -> tuple[int, ...]:
    """Evenly thinned network: ``count`` cells spread over the grid."""
    if count < 1 or count > grid_size:
        raise ValidationError("observation count must be in [1, grid size]")
    stride = grid_size // count
    return tuple(range(0, stride * count, stride))


class OperatorWork:
    """One caller's buffers for one ``RadianceOperator``'s evaluations.

    ``RadianceOperator.work()`` makes one. It holds the columns at the last
    state evaluated through it: the bytes of that state (``key``, by which
    it is recognised), the raw moisture q_raw at the observed cells,
    the surface temperature t_surf and w = exp(-kappa q) of the floored
    moisture q. It also holds the predictor matrix ``values`` multiplies, a
    scratch vector, and the Jacobian buffers ``jacobians`` returns: the
    (n_obs, n_state) state Jacobian, zero but at the sensitivities each
    call writes, and the bias Jacobian, whose constant and scan-position
    columns are filled here once. A later ``jacobians`` call through the
    same work overwrites the arrays an earlier one returned. A work serves
    one thread at a time; threads may share the operator, each with its own
    work.
    """

    __slots__ = (
        "operator", "key", "q_raw", "t_surf", "w", "scratch", "predictors",
        "sensitivities", "d_dtemp", "d_dmoist", "jac_state", "jac_bias",
    )

    def __init__(self, operator: "RadianceOperator"):
        n_obs = operator._n_obs
        self.operator, self.key, self.q_raw = operator, None, None
        self.t_surf, self.w, self.scratch = np.empty((3, n_obs))
        self.predictors = operator._jac_bias[:, 1:].copy()
        self.sensitivities = np.empty(2 * n_obs)
        self.d_dtemp, self.d_dmoist = self.sensitivities[:n_obs], self.sensitivities[n_obs:]
        self.jac_state = np.zeros((n_obs, operator.n_state))
        self.jac_bias = operator._jac_bias.copy()


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
    grid size alone, so ``run_scenario`` builds one per scenario; it
    synthesizes the truth's observations and serves every analysis of the
    scenario. The template is also held as ``bias_background``, the
    read-only vector [beta_0, beta_1, ...]. Everything that does not depend
    on the control is fixed at construction: which predictor columns hold
    the surface temperature, one gather index ``[locs, grid_size + locs]`` that
    reads both fields in one call, the Jacobian's nonzero positions, and
    the mapping's constants (surface offset, atmosphere temperature,
    opacity and its negation) together with zero and one, each as a vector
    of length n_obs. A scan-position column is constant, so it is filled
    once, in a bias Jacobian template whose first column is ones. A vector
    operand gives the same bits as the scalar it holds and costs less per
    numpy call.

    The operator itself is read-only; what a call writes lives in an
    ``OperatorWork`` that the caller owns (``work()`` makes one), passed as
    ``values(state, bias, work)`` and ``jacobians(state, bias, work)``.
    Without one a call makes its own, so it returns fresh arrays. Both
    methods first make sure the work holds the columns at ``state``: they
    gather the observed cells and work the columns out again only when the
    state's bytes differ from the ones the work last saw. So
    ``jacobians`` right after ``values`` at the same point reuses that
    point's columns, and a work that holds another state's columns, or
    whose state was written into since, is brought up to date. A work made
    by another operator is rejected. ``values`` writes the
    surface-temperature columns into the work's predictor matrix and skips
    the product when there is no predictor. ``jacobians`` writes them into
    the work's bias Jacobian, adds each surface-temperature coefficient to
    d/dT (its slope is one), and sets d/dT and d/dq, held in one vector,
    with one flat assignment into the work's state Jacobian; no other entry
    of either Jacobian changes. It zeroes the moisture sensitivity where the
    raw moisture is <= 0, which equals keeping it where the moisture is > 0
    for every moisture but NaN.
    """

    mapping: ColumnMapping
    bias_template: BiasModel
    obs_locations: tuple[int, ...]
    grid_size: int

    def __post_init__(self):
        if any(not 0 <= loc < self.grid_size for loc in self.obs_locations):
            raise ValidationError("observation locations must index the model grid")
        template = self.bias_template
        locs = np.array(self.obs_locations, dtype=int)
        n_obs = len(locs)
        row_starts = np.arange(n_obs) * self.n_state

        def full(value: float) -> np.ndarray:
            return np.full(n_obs, value, dtype=float)

        # The bias Jacobian with its constant and scan-position columns filled in.
        jac_bias = np.empty((n_obs, self.n_bias))
        jac_bias[:, 0] = 1.0
        for i, name in enumerate(template.predictors):
            if name == "scan_position":
                jac_bias[:, 1 + i] = locs
        constants = {
            "bias_background": np.array(
                [template.constant_coefficient_k, *template.coefficients], dtype=float
            ),
            "_surface_columns": tuple(
                i for i, name in enumerate(template.predictors) if name == "surface_temperature"
            ),
            "_n_obs": n_obs,
            "_gather": np.concatenate([locs, self.grid_size + locs]),
            # Positions of d/dT, then d/dq, in the row-major (n_obs, n_state) Jacobian.
            "_flat_sensitivities": np.concatenate(
                [row_starts + locs, row_starts + self.grid_size + locs]
            ),
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

    def work(self) -> OperatorWork:
        """A new work object for this operator's calls (see the class docstring)."""
        return OperatorWork(self)

    def _at(self, state: np.ndarray, work: OperatorWork | None) -> OperatorWork:
        """``work``, or a new one, holding the columns at ``state``."""
        if work is None:
            work = OperatorWork(self)
        elif work.operator is not self:
            raise ValidationError("work object was made by another operator")
        key = state.tobytes()
        if key != work.key:
            cells, n_obs, w = state.take(self._gather), self._n_obs, work.w
            np.add(self._surface_offset, cells[:n_obs], work.t_surf)
            q_raw = cells[n_obs:]
            np.maximum(self._zeros, q_raw, out=w)
            np.multiply(self._neg_kappa, w, w)
            np.exp(w, w)
            work.key, work.q_raw = key, q_raw
        return work

    def values(
        self, state: np.ndarray, bias: np.ndarray, work: OperatorWork | None = None
    ) -> np.ndarray:
        work = self._at(state, work)
        t_surf, w, rest = work.t_surf, work.w, work.scratch
        # t_surf w + t_atm (1 - w), the second term formed in the scratch vector.
        h = np.multiply(t_surf, w)
        np.subtract(self._ones, w, rest)
        np.multiply(self._t_atm, rest, rest)
        np.add(h, rest, h)
        # ndarray.dot costs less per call than @. With one observation the two
        # can differ in the sign of a zero, which the add loses: h + beta_0 is
        # never -0.0, because h is not (t_atm > 0), so with no predictor the
        # add of their zero product is left out.
        np.add(h, bias[0], h)
        if self.bias_template.predictors:
            pred = work.predictors
            for i in self._surface_columns:
                pred[:, i] = t_surf
            np.add(h, pred.dot(bias[1:]), h)
        return h

    def jacobians(self, state: np.ndarray, bias: np.ndarray, work: OperatorWork | None = None):
        work = self._at(state, work)
        t_surf, d_dtemp, d_dmoist = work.t_surf, work.d_dtemp, work.d_dmoist
        # d/dq is kappa (t_atm - t_surf) w, zero where the column is dry.
        w = work.w
        np.subtract(self._t_atm, t_surf, d_dmoist)
        np.multiply(self._kappa, d_dmoist, d_dmoist)
        np.multiply(d_dmoist, w, d_dmoist)
        np.putmask(d_dmoist, work.q_raw <= self._zeros, 0.0)
        # d/dT is w plus each surface-temperature coefficient, added in turn
        # (the first add reads w, so w itself is copied only when there is none).
        addend = w
        for i in self._surface_columns:
            addend = np.add(addend, bias[1 + i], d_dtemp)
        if addend is w:
            np.copyto(d_dtemp, w)

        # [d/dT, d/dq] at the observed cells, set in the Jacobian at once.
        work.jac_state.put(self._flat_sensitivities, work.sensitivities)
        jac_bias = work.jac_bias
        for i in self._surface_columns:
            jac_bias[:, 1 + i] = t_surf
        return work.jac_state, jac_bias


def synthesize_observations(
    truth: ModelState,
    operator: RadianceOperator,
    obs_error_seed: int,
    error_stddev_k: float,
) -> np.ndarray:
    """Brightness temperatures a radiometer would report over the truth state.

    The analysis operator's values at the truth and its bias template, plus
    seeded Gaussian noise of ``error_stddev_k``, one draw per observation in
    location order: the analysis sees the operator that made its
    observations, bit for bit. Returns a read-only array of values, one per
    location, all finite.

    Raises ``ValidationError`` when a column's surface temperature is not
    positive: ``ColumnMapping`` rejects an offset <= 0, and this catches a
    positive ``surface_offset_k`` that a cell's temperature undercuts.
    """
    state = truth.vector
    if state.shape != (operator.n_state,):
        raise ValidationError("truth state does not match the operator's grid")
    if not error_stddev_k > 0:
        raise ValidationError("observation error stddev must be positive")
    work = operator._at(state, None)
    if np.any(work.t_surf <= 0.0):
        raise ValidationError("column temperatures must be positive")
    noise = SeededRng(obs_error_seed).normals(len(work.t_surf), 0.0, error_stddev_k)
    # A bias template whose correction overflows is rejected just below.
    with np.errstate(over="ignore", invalid="ignore"):
        values = operator.values(state, operator.bias_background, work) + np.array(noise)
    if not np.all(np.isfinite(values)):
        raise ValidationError("observation value must be finite")
    values.setflags(write=False)
    return values


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
