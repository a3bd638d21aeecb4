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

A ``Workspace`` is the step bound to its grid size and parameters, the
model's one handle on them; the caller makes it and passes it to
``step``, ``integrate`` and ``nature_run``. It holds buffers for the stage
inputs, the stage matrix k1..k4, the final combination and the accumulated
precipitation, the gather index and zero vector it builds for its grid
size, and the step itself, bound once as a closure over them. One gather
from a source buffer ``[T, q, q_c, 0, 1, r, c_q]`` yields every operand of
a tendency, so a tendency is nine numpy calls; the stage combination is
one doubling and one row reduce, and a step is 51 calls, each on a whole
vector. On the 40-cell grid a step's cost is per-call overhead, not
arithmetic, so the closure passes every output positionally and reads its
buffers from closure cells, not attributes. A tendency evaluates the
formulas above left to right, so a step gives the same bits on a shared
workspace or its own.

``step`` maps a ``[T, q]`` vector to the next one. A forecast keeps only
what the report reads: ``integrate`` steps one vector at a time, wraps
only the last in a ``ModelState``, and returns it with the precipitation,
which each step accumulates from the condensation sink of its first stage.

Reporting conventions (never used inside the dynamics): one state unit of
accumulated condensate is one millimetre of precipitation, and temperature
is reported as the state value plus a 273 K offset.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if not self.dt > 0:
            raise ValidationError("time step must be positive", "dt")
        if not self.condensation_rate >= 0:
            raise ValidationError("condensation rate must be >= 0", "condensation_rate")
        # Below zero, a cell with no moisture would condense r |q_c| per unit time.
        if not self.condensation_threshold >= 0:
            raise ValidationError("condensation threshold must be >= 0", "condensation_threshold")


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
    def from_vector(cls, vector) -> ModelState:
        """The state ``[T, q]`` of a flat vector, its moisture floored at zero."""
        vector = np.asarray(vector, dtype=float)
        if vector.ndim != 1 or vector.shape[0] % 2 or not np.isfinite(vector).all():
            raise ValidationError(f"state vector must be a finite [T, q], got shape {vector.shape}")
        n = vector.shape[0] // 2
        return cls(vector[:n], np.maximum(0.0, vector[n:]))

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
class Forecast:
    """A forecast's final state and its accumulated precipitation (mm per cell).

    ``states`` is ``(final,)``, the one state a forecast retains, for tools
    that count the states held at once (it takes weak references too).
    """

    final: ModelState
    precipitation: np.ndarray

    @property
    def states(self) -> tuple[ModelState]:
        return (self.final,)


class Workspace:
    """The RK4 step on a grid of ``grid_size`` cells under ``params``, bound once.

    The caller makes it: ``config_from_dict`` one for its two probes, and
    ``run_scenario`` one for its spin-up and all its forecasts. It is
    passed to every ``step``, so a run allocates its stage inputs,
    ``k1..k4``, the final combination and the precipitation once. The
    constructor builds ``step(x0) -> x1`` as a closure over those buffers,
    the step's constant vectors and the numpy callables it uses. Outputs
    are passed positionally, except to ``np.maximum``, which deprecates
    that. A constant vector costs numpy less per call than a scalar and
    gives the same bits. ``buffers`` holds every array the step writes, and
    ``sixth_h`` is the vector h / 6 that scales the stage combination.

    Each step adds dt times the condensation sink at x0, which its first
    stage works out, into ``precipitation``: the left-point rule, added in
    step order. ``integrate`` zeroes it before a forecast's first step and
    copies it after the last, so a workspace carries nothing from one
    forecast to the next; ``step`` called on its own adds into it too.
    """

    __slots__ = ("params", "size", "buffers", "precipitation", "sixth_h", "step")

    def __init__(self, grid_size: int, params: ModelParams):
        if grid_size < 4:
            raise ValidationError("grid needs at least 4 cells")
        n = grid_size
        # ``gather`` picks 17N values out of the source buffer
        # [T, q, q_c, 0, 1, r, c_q]. With k over the grid and neighbours taken
        # cyclically, its minuend, subtrahend and factor blocks are
        #
        #     T[k+1]  q[k]    T  q    q  q[k-1]
        #     T[k-2]  q[k+1]  0  q_c  0  q[k]
        #     T[k-1]  T[k]    1  r    c_q
        #
        # so that one subtraction gives T[k+1] - T[k-2], the negated forward
        # moisture difference, T, q - q_c, q and the negated backward
        # difference, and one product of its first 5N values with the factors
        # gives [A, B, T, r max(0, q - q_c), c_q q] once the backward
        # difference has replaced the forward one where T > 0 and q - q_c is
        # floored at zero.
        k = np.arange(n)
        right, left, left2 = (k + 1) % n, (k - 1) % n, (k - 2) % n
        q_c, zero, one, rate, coupling = (np.full(n, 2 * n + i) for i in range(5))
        gather = np.concatenate(
            [right, n + k, k, n + k, n + k, n + left]
            + [left2, n + right, zero, q_c, zero, n + k]
            + [left, k, one, rate, coupling]
        )
        zeros = np.zeros(2 * n)
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
        condensation, moisture_term = products[3 * n : 4 * n], products[4 * n :]
        precipitation = np.zeros(n)
        increment = np.empty(2 * n)
        stages = np.empty((4, 2 * n))
        k1, k2, k3, k4, doubled = stages[0], stages[1], stages[2], stages[3], stages[1:3]
        k1_t, k2_t, k3_t, k4_t = k1[:n], k2[:n], k3[:n], k4[:n]
        h = params.dt
        forcing = np.full(n, params.forcing)
        scales = np.empty((3, 2 * n))
        scales[0], scales[1], scales[2] = 0.5 * h, h, h / 6.0
        half_h, full_h, sixth_h = scales[0], scales[1], scales[2]
        full_h_n = full_h[:n]
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

        def step(x0):
            # Stage inputs x0 + (h / 2) k1, x0 + (h / 2) k2 and x0 + h k3.
            point[...] = x0
            rhs(k1, k1_t)
            # r max(0, q - q_c) at x0 is still in the products; h times it
            # is this step's precipitation.
            multiply(condensation, full_h_n, condensation)
            add(precipitation, condensation, precipitation)
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
        self.buffers = (
            source, gathered, differences, wind, products, increment, stages, precipitation
        )
        self.precipitation = precipitation
        self.step = step


def step(x0: np.ndarray, workspace: Workspace) -> np.ndarray:
    """The ``[T, q]`` vector one RK4 step of ``workspace.params.dt`` after
    ``x0``, its moisture clipped at 0; ``x0`` must be of the workspace's grid size."""
    if workspace.size != x0.shape[0]:
        raise ValidationError("workspace was made for another grid size")
    return workspace.step(x0)


def integrate(state: ModelState, n_steps: int, workspace: Workspace) -> Forecast:
    """Take ``n_steps`` steps from ``state`` on ``workspace``; returns the
    final state and the precipitation accumulated over those steps.

    The state's vector goes through ``step`` once per step, and only the
    last vector becomes a ``ModelState``, through ``ModelState.from_vector``;
    with no step, the final state is ``state`` itself. The floor there
    changes no bit: step's clip leaves no moisture below zero, nor at -0.0
    (its maximum of a -0.0 and the zero vector is +0.0, as the tests pin).
    A workspace carries nothing from one forecast to the next, so
    ``run_scenario`` makes one and passes it to every forecast. Forecasts
    of a + b steps and of a then b steps end in the same state, bit for
    bit. A blow-up is re-raised with the index of the failing step within
    this call. It is reported by step's finiteness check; the overflow on
    the way there would only add floating-point warnings.
    """
    if n_steps < 0:
        raise ValidationError("step count must be >= 0")
    if workspace.size != state.vector.shape[0]:  # before the precipitation is read
        raise ValidationError("workspace was made for another grid size")
    workspace.precipitation.fill(0.0)
    x = state.vector
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            try:
                x = step(x, workspace)
            except ModelBlowUpError as exc:
                raise ModelBlowUpError(i) from exc
    precipitation = workspace.precipitation.copy()
    precipitation.setflags(write=False)
    final = ModelState.from_vector(x) if n_steps else state
    return Forecast(final, precipitation)


def diagnostics(forecast: Forecast) -> tuple[np.ndarray, np.ndarray]:
    """Accumulated precipitation (mm) and final near-surface temperature (K), per cell.

    Precipitation is never negative, as ``ModelParams`` keeps the rate >= 0
    and ``dt`` > 0.
    """
    return forecast.precipitation, forecast.final.temperature_field + TEMPERATURE_REPORT_OFFSET_K


def nature_run(workspace: Workspace, seed: int, spinup_steps: int) -> Forecast:
    """Seeded synthetic truth on ``workspace``'s grid under its parameters:
    the forecast of ``spinup_steps`` steps from a seeded initial state, whose
    ``final`` is the truth.

    The initial temperature field is the forcing value plus a 0.5-stddev
    seeded Gaussian perturbation per cell; moisture starts 5 above the
    condensation threshold plus a 2.0-stddev perturbation, floored at zero,
    so forecasts keep precipitating after spin-up. Identical seeds give
    identical truths.
    """
    params, grid_size = workspace.params, workspace.size // 2
    centre = np.repeat([params.forcing, params.condensation_threshold + 5.0], grid_size)
    noise = np.repeat([0.5, 2.0], grid_size) * np.array(SeededRng(seed).normals(2 * grid_size))
    return integrate(ModelState.from_vector(centre + noise), spinup_steps, workspace)
