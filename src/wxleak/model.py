"""Toy chaotic forecast model with moisture coupling.

Dynamics on a cyclic grid of N cells, advanced with classic RK4. The
temperature field follows the standard chaotic advection-damping-forcing
form, plus a moisture feedback; moisture is transported by the temperature
field and removed by threshold condensation:

    dT_k/dt = (T_{k+1} - T_{k-2}) T_{k-1} - T_k + F + c_q q_k
    dq_k/dt = -T_k dq/dx|_k - r max(0, q_k - q_c)

The moisture gradient is discretized upwind (against the local T "wind",
unit grid spacing); centered differences are unstable here over long runs
because the advecting field is rough. Moisture is clipped at zero after
every step. The condensation sink doubles as the precipitation diagnostic:
whatever it removes is counted as rain.

Reporting conventions (never used inside the dynamics): one state unit of
accumulated condensate is one millimetre of precipitation, and temperature
is reported as the state value plus a 273 K offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ModelBlowUpError, ValidationError
from .rng import SeededRng

TEMPERATURE_REPORT_OFFSET_K = 273.0


@dataclass(frozen=True)
class ModelParams:
    forcing: float = 8.0
    moisture_coupling: float = 0.1
    condensation_threshold: float = 25.0
    condensation_rate: float = 0.2
    dt: float = 0.01

    def __post_init__(self):
        if self.dt <= 0:
            raise ValidationError("time step must be positive")
        if self.condensation_rate < 0:
            raise ValidationError("condensation rate must be >= 0")


@dataclass(frozen=True, eq=False)
class ModelState:
    """Temperature and moisture fields on the cyclic grid (read-only arrays)."""

    temperature_field: np.ndarray
    moisture_field: np.ndarray

    def __post_init__(self):
        temperature = np.array(self.temperature_field, dtype=float)
        moisture = np.array(self.moisture_field, dtype=float)
        if temperature.shape != moisture.shape or temperature.ndim != 1:
            raise ValidationError("temperature and moisture fields must be equal-length vectors")
        if temperature.shape[0] < 4:
            raise ValidationError("grid needs at least 4 cells")
        if not (np.all(np.isfinite(temperature)) and np.all(np.isfinite(moisture))):
            raise ValidationError("model state must be finite")
        if np.any(moisture < 0):
            raise ValidationError("moisture must be >= 0")
        temperature.setflags(write=False)
        moisture.setflags(write=False)
        object.__setattr__(self, "temperature_field", temperature)
        object.__setattr__(self, "moisture_field", moisture)

    @classmethod
    def _trusted(cls, temperature: np.ndarray, moisture: np.ndarray) -> ModelState:
        """Wrap fields the caller has already validated, without copying them.

        The caller guarantees equal-length 1-D float vectors of at least 4
        cells, all finite, with moisture >= 0; ``step`` establishes each of
        these for its output. The arrays are made read-only here.
        """
        temperature.setflags(write=False)
        moisture.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "temperature_field", temperature)
        object.__setattr__(state, "moisture_field", moisture)
        return state

    @property
    def grid_size(self) -> int:
        return self.temperature_field.shape[0]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly spaced sequence of states, including the initial one."""

    states: tuple[ModelState, ...]
    times: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        times = np.asarray(self.times, dtype=float)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        if len(self.states) != times.shape[0] or len(self.states) == 0:
            raise ValidationError("trajectory needs one time per state")
        if len(self.states) > 1:
            dts = np.diff(times)
            if np.any(dts <= 0) or not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
                raise ValidationError("trajectory times must increase uniformly")

    @property
    def final(self) -> ModelState:
        return self.states[-1]


@dataclass(frozen=True, eq=False)
class ForecastDiagnostics:
    """Per-grid-point forecast quantities derived from one trajectory."""

    accumulated_precipitation_mm: np.ndarray
    two_meter_temperature_k: np.ndarray

    def __post_init__(self):
        precip = np.asarray(self.accumulated_precipitation_mm, dtype=float)
        t2m = np.asarray(self.two_meter_temperature_k, dtype=float)
        if np.any(precip < 0):
            raise ValidationError("accumulated precipitation must be >= 0")
        precip.setflags(write=False)
        t2m.setflags(write=False)
        object.__setattr__(self, "accumulated_precipitation_mm", precip)
        object.__setattr__(self, "two_meter_temperature_k", t2m)


def condensation(moisture: np.ndarray, params: ModelParams) -> np.ndarray:
    """Condensation sink r * max(0, q - q_c), per grid point."""
    return params.condensation_rate * np.maximum(0.0, moisture - params.condensation_threshold)


@lru_cache(maxsize=8)
def _neighbours(grid_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only cyclic index arrays of neighbours k+1, k-1 and k-2."""
    k = np.arange(grid_size)
    indices = ((k + 1) % grid_size, (k - 1) % grid_size, (k - 2) % grid_size)
    for index in indices:
        index.setflags(write=False)
    return indices


def tendencies(
    temperature: np.ndarray, moisture: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side of the coupled system (no clipping)."""
    t = temperature
    q = moisture
    right, left, left2 = _neighbours(t.shape[0])
    dt_dt = (
        (t[right] - t[left2]) * t[left]
        - t
        + params.forcing
        + params.moisture_coupling * q
    )
    backward = q - q[left]
    forward_ = q[right] - q
    dq_dt = -t * np.where(t > 0.0, backward, forward_) - condensation(q, params)
    return dt_dt, dq_dt


def step(state: ModelState, params: ModelParams) -> ModelState:
    """Advance one RK4 step of length ``params.dt``; moisture clipped at 0."""
    h = params.dt
    t0, q0 = state.temperature_field, state.moisture_field

    k1t, k1q = tendencies(t0, q0, params)
    k2t, k2q = tendencies(t0 + 0.5 * h * k1t, q0 + 0.5 * h * k1q, params)
    k3t, k3q = tendencies(t0 + 0.5 * h * k2t, q0 + 0.5 * h * k2q, params)
    k4t, k4q = tendencies(t0 + h * k3t, q0 + h * k3q, params)

    t1 = t0 + (h / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
    q1 = q0 + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
    q1 = np.maximum(q1, 0.0)
    if not (np.isfinite(t1).all() and np.isfinite(q1).all()):
        raise ModelBlowUpError(0)
    return ModelState._trusted(t1, q1)


def integrate(state: ModelState, params: ModelParams, n_steps: int) -> Trajectory:
    """Repeated stepping; returns n_steps + 1 states starting at ``state``."""
    if n_steps < 0:
        raise ValidationError("step count must be >= 0")
    states = [state]
    current = state
    for i in range(n_steps):
        try:
            current = step(current, params)
        except ModelBlowUpError as exc:
            raise ModelBlowUpError(i) from exc
        states.append(current)
    times = np.arange(n_steps + 1, dtype=float) * params.dt
    return Trajectory(tuple(states), times)


def diagnostics(trajectory: Trajectory, params: ModelParams) -> ForecastDiagnostics:
    """Accumulated precipitation and final near-surface temperature.

    Precipitation integrates the condensation sink with the left-point rule
    over the trajectory's steps, so concatenated trajectories add exactly.
    """
    if len(trajectory.states) == 0:
        raise ValidationError("trajectory is empty")
    n = trajectory.states[0].grid_size
    # condensation(q, params) * dt at every left point, computed in place on
    # one (steps, n) matrix so that no second matrix is allocated. A sum over
    # axis 0 adds its rows one after another, as a step-by-step loop would.
    sink = np.array([state.moisture_field for state in trajectory.states[:-1]]).reshape(-1, n)
    sink -= params.condensation_threshold
    np.maximum(0.0, sink, out=sink)
    sink *= params.condensation_rate
    sink *= params.dt
    precip = sink.sum(axis=0)
    t2m = trajectory.final.temperature_field + TEMPERATURE_REPORT_OFFSET_K
    return ForecastDiagnostics(precip, t2m)


def nature_run(
    params: ModelParams,
    seed: int,
    spinup_steps: int,
    run_steps: int,
    grid_size: int = 40,
    moisture_base: float = 30.0,
) -> Trajectory:
    """Seeded synthetic-truth trajectory.

    The initial temperature field is the forcing value plus a 0.5-stddev
    seeded Gaussian perturbation per cell; moisture starts at
    ``moisture_base`` plus a 2.0-stddev perturbation, floored at zero. The
    default base sits above the condensation threshold so forecasts keep
    precipitating after spin-up. The state is spun up for ``spinup_steps``
    (discarded), then ``run_steps`` further steps are recorded. Identical
    seeds give identical trajectories.
    """
    rng = SeededRng(seed)
    temperature = params.forcing + 0.5 * np.array(rng.normals(grid_size))
    moisture = np.maximum(0.0, moisture_base + 2.0 * np.array(rng.normals(grid_size)))
    state = ModelState(temperature, moisture)
    for i in range(spinup_steps):
        try:
            state = step(state, params)
        except ModelBlowUpError as exc:
            raise ModelBlowUpError(i) from exc
    return integrate(state, params, run_steps)
