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

A step runs on a ``Workspace``, which ``nature_run`` makes once per call,
``integrate`` takes from its caller or makes, and each passes to every
step: buffers for the stage inputs, the stage matrix k1..k4 and the final
combination, index constants cached per grid size, and the step itself,
bound once as a closure over them. One gather from a source buffer
``[T, q, q_c, 0, 1, r, c_q]`` yields every operand of a tendency, so a
tendency is nine numpy calls; the stage combination is one doubling and
one row reduce, and a step is 49 calls, each on a whole vector. On the
40-cell grid a step's cost is per-call overhead, not arithmetic, so the
closure passes every output positionally and reads its buffers from
closure cells, not attributes. A tendency evaluates the formulas above
left to right, so a step gives the same bits on a shared workspace or its
own.

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
            raise ValidationError("time step must be positive", "dt")
        if self.condensation_rate < 0:
            raise ValidationError("condensation rate must be >= 0", "condensation_rate")


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
    """States one model time step ``dt`` apart, starting with the initial one."""

    states: tuple[ModelState, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.states) == 0:
            raise ValidationError("trajectory needs at least one state")

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
def _layout(grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only constants of the RK4 workspace on a grid of N cells.

    ``gather`` picks 17N values out of a workspace's source buffer
    ``[T, q, q_c, 0, 1, r, c_q]``. With k over the grid and neighbours taken
    cyclically, its minuend, subtrahend and factor blocks are

        T[k+1]  q[k]    T  q    q  q[k-1]
        T[k-2]  q[k+1]  0  q_c  0  q[k]
        T[k-1]  T[k]    1  r    c_q

    so that one subtraction gives T[k+1] - T[k-2], the negated forward
    moisture difference, T, q - q_c, q and the negated backward difference,
    and one product of its first 5N values with the factors gives
    [A, B, T, r max(0, q - q_c), c_q q] once the backward difference has
    replaced the forward one where T > 0 and q - q_c is floored at zero.
    ``zeros`` is 2N zeros.
    """
    n = grid_size
    k = np.arange(n)
    right, left, left2 = (k + 1) % n, (k - 1) % n, (k - 2) % n
    q_c, zero, one, rate, coupling = (np.full(n, 2 * n + i) for i in range(5))
    gather = np.concatenate(
        [right, n + k, k, n + k, n + k, n + left]
        + [left2, n + right, zero, q_c, zero, n + k]
        + [left, k, one, rate, coupling]
    )
    zeros = np.zeros(2 * n)
    for constant in (gather, zeros):
        constant.setflags(write=False)
    return gather, zeros


class Workspace:
    """The RK4 step on a grid of ``grid_size`` cells under ``params``, bound once.

    ``nature_run`` makes one per call and ``run_scenario`` one per scenario
    for all its forecasts; each passes it to every ``step``, so a run
    allocates its stage inputs, ``k1..k4`` and the final combination once.
    The constructor builds ``step(x0) -> x1`` and ``tendencies(x) -> dx/dt``
    as closures over those buffers, the step's constant vectors and the
    numpy callables they use. Outputs are passed positionally, except to
    ``np.maximum``, which deprecates that. A constant vector costs numpy
    less per call than a scalar and gives the same bits. ``buffers`` holds
    every array the step writes, and ``sixth_h`` is the vector h / 6 that
    scales the stage combination.
    """

    __slots__ = ("params", "size", "buffers", "sixth_h", "tendencies", "step")

    def __init__(self, grid_size: int, params: ModelParams):
        if grid_size < 4:
            raise ValidationError("grid needs at least 4 cells")
        n = grid_size
        gather, zeros = _layout(n)
        zeros_n = zeros[:n]
        source = np.empty(2 * n + 5)
        source[2 * n :] = (
            params.condensation_threshold,
            0.0,
            1.0,
            params.condensation_rate,
            params.moisture_coupling,
        )
        point, temperature = source[: 2 * n], source[:n]
        gathered = np.empty(17 * n)
        minuend, subtrahend = gathered[: 6 * n], gathered[6 * n : 12 * n]
        factors = gathered[12 * n :]
        differences = np.empty(6 * n)
        operands, forward = differences[: 5 * n], differences[n : 2 * n]
        excess, backward = differences[3 * n : 4 * n], differences[5 * n :]
        wind = np.empty(n, dtype=bool)
        products = np.empty(5 * n)
        leading, sinks = products[: 2 * n], products[2 * n : 4 * n]
        moisture_term = products[4 * n :]
        increment = np.empty(2 * n)
        stages = np.empty((4, 2 * n))
        k1, k2, k3, k4, doubled = stages[0], stages[1], stages[2], stages[3], stages[1:3]
        k1_t, k2_t, k3_t, k4_t = k1[:n], k2[:n], k3[:n], k4[:n]
        h = params.dt
        forcing = np.full(n, params.forcing)
        scales = np.empty((3, 2 * n))
        scales[0], scales[1], scales[2] = 0.5 * h, h, h / 6.0
        half_h, full_h, sixth_h = scales[0], scales[1], scales[2]
        take, putmask, greater, maximum = source.take, np.putmask, np.greater, np.maximum
        add, subtract, multiply, add_rows = np.add, np.subtract, np.multiply, np.add.reduce

        def rhs(out, out_temperature):
            # In order per cell: (T[k+1] - T[k-2]) T[k-1] - T[k] + F + c_q q
            # for dT/dt and T[k] (negated upwind moisture difference)
            # - r max(0, q - q_c) for dq/dt; -T times a difference equals T
            # times the negated one exactly, as do x - 0 and x 1.
            take(gather, None, gathered, "clip")
            subtract(minuend, subtrahend, differences)
            maximum(zeros_n, excess, out=excess)
            greater(temperature, zeros_n, wind)
            putmask(forward, wind, backward)
            multiply(operands, factors, products)
            subtract(leading, sinks, out)
            add(out_temperature, forcing, out_temperature)
            add(out_temperature, moisture_term, out_temperature)

        def tendencies(x):
            point[...] = x
            out = np.empty(2 * n)
            rhs(out, out[:n])
            return out

        def step(x0):
            # Stage inputs x0 + (h / 2) k1, x0 + (h / 2) k2 and x0 + h k3.
            point[...] = x0
            rhs(k1, k1_t)
            multiply(k1, half_h, increment)
            add(x0, increment, point)
            rhs(k2, k2_t)
            multiply(k2, half_h, increment)
            add(x0, increment, point)
            rhs(k3, k3_t)
            multiply(k3, full_h, increment)
            add(x0, increment, point)
            rhs(k4, k4_t)
            # x0 + (h / 6) (((k1 + 2 k2) + 2 k3) + k4) into a new vector: 2 k
            # is k + k exactly, and a reduce over the stage matrix's leading
            # axis adds its rows one after another.
            add(doubled, doubled, doubled)
            add_rows(stages, 0, None, increment)
            multiply(increment, sixth_h, increment)
            x1 = add(x0, increment)
            moisture = x1[n:]
            maximum(moisture, zeros_n, out=moisture)
            # x1 . 0 is NaN exactly when some element of x1 is NaN or infinite.
            if not x1.dot(zeros) == 0.0:
                raise ModelBlowUpError(0)
            return x1

        self.params, self.size, self.sixth_h = params, 2 * n, sixth_h
        self.buffers = (source, gathered, differences, wind, products, increment, stages)
        self.tendencies, self.step = tendencies, step


def tendencies(state: np.ndarray, params: ModelParams) -> np.ndarray:
    """Right-hand side ``[dT/dt, dq/dt]`` of the coupled system at ``[T, q]`` (no clipping)."""
    return Workspace(state.shape[0] // 2, params).tendencies(state)


def step(
    state: ModelState, params: ModelParams, workspace: Workspace | None = None
) -> ModelState:
    """Advance one RK4 step of length ``params.dt``; moisture clipped at 0.

    ``workspace`` must have been made for the state's grid size and for
    ``params``; without one, the step makes its own.
    """
    x0 = state.vector
    if workspace is None:
        workspace = Workspace(x0.shape[0] // 2, params)
    elif workspace.size != x0.shape[0] or (
        workspace.params is not params and workspace.params != params
    ):
        raise ValidationError("workspace was made for another grid size or other parameters")
    return ModelState._trusted(workspace.step(x0))


def _advance(
    state: ModelState,
    params: ModelParams,
    n_steps: int,
    workspace: Workspace,
    states: list[ModelState] | None = None,
) -> ModelState:
    """Take ``n_steps`` steps from ``state`` and return the last state,
    appending each new state to ``states`` if given.

    A blow-up is re-raised with the index of the failing step within this
    call. It is reported by step's finiteness check; the overflow on the way
    there would only add floating-point warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            try:
                state = step(state, params, workspace)
            except ModelBlowUpError as exc:
                raise ModelBlowUpError(i) from exc
            if states is not None:
                states.append(state)
    return state


def _trajectory(
    state: ModelState, params: ModelParams, n_steps: int, workspace: Workspace
) -> Trajectory:
    if n_steps < 0:
        raise ValidationError("step count must be >= 0")
    states = [state]
    _advance(state, params, n_steps, workspace, states)
    return Trajectory(tuple(states))


def integrate(
    state: ModelState,
    params: ModelParams,
    n_steps: int,
    workspace: Workspace | None = None,
) -> Trajectory:
    """Repeated stepping on one workspace; returns n_steps + 1 states starting at ``state``.

    ``workspace`` is as for ``step``; without one, the forecast makes its
    own. A workspace holds no state between steps, so ``run_scenario``
    makes one per scenario and passes it to every forecast.
    """
    if workspace is None:
        workspace = Workspace(state.grid_size, params)
    return _trajectory(state, params, n_steps, workspace)


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
    params: ModelParams, seed: int, spinup_steps: int, run_steps: int, grid_size: int = 40
) -> Trajectory:
    """Seeded synthetic-truth trajectory.

    The initial temperature field is the forcing value plus a 0.5-stddev
    seeded Gaussian perturbation per cell; moisture starts 5 above the
    condensation threshold plus a 2.0-stddev perturbation, floored at zero,
    so forecasts keep precipitating after spin-up. The state is spun up for
    ``spinup_steps`` (discarded), then ``run_steps`` further steps are
    recorded. Identical seeds give identical trajectories.
    """
    rng = SeededRng(seed)
    temperature = params.forcing + 0.5 * np.array(rng.normals(grid_size))
    moisture_base = params.condensation_threshold + 5.0
    moisture = np.maximum(0.0, moisture_base + 2.0 * np.array(rng.normals(grid_size)))
    state = ModelState(temperature, moisture)
    workspace = Workspace(grid_size, params)
    state = _advance(state, params, spinup_steps, workspace)
    return _trajectory(state, params, run_steps, workspace)
