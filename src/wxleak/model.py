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


@dataclass(frozen=True, eq=False, init=False, slots=True)
class ModelState:
    """Temperature and moisture fields on the cyclic grid.

    The state is held as one read-only vector ``[T, q]`` of length 2N;
    ``temperature_field`` and ``moisture_field`` are read-only views of its
    halves, made on access so that a stored state costs one array.
    """

    vector: np.ndarray

    def __init__(self, temperature_field, moisture_field):
        temperature = np.asarray(temperature_field, dtype=float)
        moisture = np.asarray(moisture_field, dtype=float)
        if temperature.shape != moisture.shape or temperature.ndim != 1:
            raise ValidationError("temperature and moisture fields must be equal-length vectors")
        if temperature.shape[0] < 4:
            raise ValidationError("grid needs at least 4 cells")
        if not (np.all(np.isfinite(temperature)) and np.all(np.isfinite(moisture))):
            raise ValidationError("model state must be finite")
        if np.any(moisture < 0):
            raise ValidationError("moisture must be >= 0")
        vector = np.concatenate([temperature, moisture])
        vector.setflags(write=False)
        object.__setattr__(self, "vector", vector)

    @classmethod
    def _trusted(cls, vector: np.ndarray) -> ModelState:
        """Wrap a ``[T, q]`` vector the caller has already validated, without copying it.

        The caller guarantees a 1-D float vector of even length of at least 8,
        all finite, with its moisture half >= 0; ``step`` establishes each of
        these for its output. The vector is made read-only here.
        """
        vector.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "vector", vector)
        return state

    @property
    def grid_size(self) -> int:
        return self.vector.shape[0] // 2

    @property
    def temperature_field(self) -> np.ndarray:
        return self.vector[: self.vector.shape[0] // 2]

    @property
    def moisture_field(self) -> np.ndarray:
        return self.vector[self.vector.shape[0] // 2 :]


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


def condensation(
    moisture: np.ndarray, params: ModelParams, out: np.ndarray | None = None
) -> np.ndarray:
    """Condensation sink r * max(0, q - q_c), per grid point (written to ``out`` if given)."""
    return np.multiply(
        params.condensation_rate,
        np.maximum(0.0, moisture - params.condensation_threshold),
        out=out,
    )


@lru_cache(maxsize=8)
def _stencil(grid_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only constants of ``tendencies`` on a grid of N cells.

    ``gather`` picks 9N values out of a ``[T, q]`` vector; with k over the
    grid and neighbours taken cyclically, block by block they are

        T[k+1]  (q[k], q[k-1]) per k  T[k-2]  (q[k+1], q[k]) per k  T[k-1]  T[k]  T[k]

    so that the first 3N minus the next 3N is, in one subtraction,
    T[k+1] - T[k-2] and then, per k, the negated forward difference
    q[k] - q[k+1] followed by the negated backward difference q[k-1] - q[k].
    The last block is a work area. ``select`` indexes that 3N result: k
    for T[k+1] - T[k-2], then N + 2k for cell k's forward difference; adding
    ``[T[k-1], T[k]] > threshold`` (never true in the first half, T[k] > 0
    in the second) moves to the backward difference where the wind is
    positive.
    """
    n = grid_size
    k = np.arange(n)
    right, left, left2 = (k + 1) % n, (k - 1) % n, (k - 2) % n
    minuend = np.stack([n + k, n + left], axis=1).reshape(-1)
    subtrahend = np.stack([n + right, n + k], axis=1).reshape(-1)
    gather = np.concatenate([right, minuend, left2, subtrahend, left, k, k])
    select = np.concatenate([k, n + 2 * k])
    threshold = np.concatenate([np.full(n, np.inf), np.zeros(n)])
    for constant in (gather, select, threshold):
        constant.setflags(write=False)
    return gather, select, threshold


def tendencies(state: np.ndarray, params: ModelParams) -> np.ndarray:
    """Right-hand side ``[dT/dt, dq/dt]`` of the coupled system at ``[T, q]`` (no clipping)."""
    n = state.shape[0] // 2
    q = state[n:]
    gather, select, threshold = _stencil(n)
    gathered = state[gather]
    differences = gathered[: 3 * n] - gathered[3 * n : 6 * n]
    factors = gathered[6 * n : 8 * n]  # [T[k-1], T[k]]
    # [(T[k+1] - T[k-2]) T[k-1], T[k] (negated upwind moisture difference)];
    # -T times a difference equals T times the negated one exactly.
    out = differences[select + (factors > threshold)] * factors
    condensation(q, params, out=gathered[8 * n :])
    out -= gathered[7 * n :]  # [T[k], condensation]
    # dT/dt is completed in place, in the order ((... - T) + F) + c_q q.
    dt_dt = out[:n]
    dt_dt += params.forcing
    dt_dt += params.moisture_coupling * q
    return out


def step(state: ModelState, params: ModelParams) -> ModelState:
    """Advance one RK4 step of length ``params.dt``; moisture clipped at 0."""
    h = params.dt
    x0 = state.vector

    k1 = tendencies(x0, params)
    k2 = tendencies(x0 + 0.5 * h * k1, params)
    k3 = tendencies(x0 + 0.5 * h * k2, params)
    k4 = tendencies(x0 + h * k3, params)

    x1 = x0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    moisture = x1[x1.shape[0] // 2 :]
    np.maximum(moisture, 0.0, out=moisture)
    if not np.isfinite(x1).all():
        raise ModelBlowUpError(0)
    return ModelState._trusted(x1)


def integrate(state: ModelState, params: ModelParams, n_steps: int) -> Trajectory:
    """Repeated stepping; returns n_steps + 1 states starting at ``state``."""
    if n_steps < 0:
        raise ValidationError("step count must be >= 0")
    states = [state]
    current = state
    # A blow-up is reported by step's finiteness check; the overflow on the
    # way there would only add floating-point warnings.
    with np.errstate(over="ignore", invalid="ignore"):
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
    # one (steps, n) matrix so that no second matrix is allocated; its rows
    # are copied straight from the state vectors, with no view per state. A
    # sum over axis 0 adds the rows one after another, as a step-by-step
    # loop would.
    left_points = trajectory.states[:-1]
    sink = np.empty((len(left_points), n))
    for row, state in zip(sink, left_points):
        row[...] = state.vector[n:]
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
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(spinup_steps):
            try:
                state = step(state, params)
            except ModelBlowUpError as exc:
                raise ModelBlowUpError(i) from exc
    return integrate(state, params, run_steps)
