"""Variational analysis with an augmented bias-correction control vector.

The analysis minimizes

    J(x, beta) = 1/2 (x - x_b)' B^-1 (x - x_b)
               + 1/2 (beta - beta_b)' B_beta^-1 (beta - beta_b)
               + 1/2 (y - H_hat(x, beta))' R^-1 (y - H_hat(x, beta))

over the model state x and the bias coefficients beta together, so the bias
correction is re-estimated inside every analysis. All three covariance
weights enter through their inverses; pinning the state (near-zero B
variances) recovers the bias-only problem.

The minimizer is a Polak-Ribiere nonlinear conjugate gradient with automatic
restart and an Armijo backtracking line search (c = 1e-4, shrink 0.5),
Jacobi-scaled because the state and bias blocks carry curvatures orders of
magnitude apart. The first trial step along each direction comes from the
Gauss-Newton curvature, which the operator Jacobians make cheap; on
quadratic problems that step is the exact line minimum, so convergence does
not depend on step-size luck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Protocol

import numpy as np

from .errors import MinimizationError, ValidationError

GRADIENT_TOLERANCE = 1e-8
MAX_ITERATIONS = 500
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
_MAX_BACKTRACKS = 60
# Near the optimum the true per-step decrease drops below the evaluation
# noise of the cost itself; without an allowance at that scale the line
# search rejects sound steps and stalls just above the gradient tolerance.
# The dominant rounding source is the innovation y - H(x): a cancellation
# of two full-scale brightness temperatures, amplified by R^-1, so the
# floor is estimated from those magnitudes rather than from the cost alone.
_EPS = float(np.finfo(float).eps)


class Control(NamedTuple):
    """One point in the augmented control space."""

    state: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True)
class CovarianceSpec:
    """Diagonal error covariance, held as its variances, with its inverse application.

    Non-positive or non-finite variances fail here, never inside the
    minimizer.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if values.ndim != 1:
            raise ValidationError("diagonal covariance takes a 1-d variance vector")
        if np.any(values <= 0) or not np.all(np.isfinite(values)):
            raise ValidationError("diagonal variances must be positive and finite")
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def solve(self, v: np.ndarray) -> np.ndarray:
        """Apply the inverse covariance to a vector."""
        return v / self.values

    def quadratic(self, v: np.ndarray) -> float:
        """v' C^-1 v."""
        return float(v @ self.solve(v))

    def inverse_diagonal(self) -> np.ndarray:
        """Diagonal of the inverse covariance (used for scaling)."""
        return 1.0 / self.values


class ObservationOperator(Protocol):
    """What the analysis needs from a (possibly nonlinear) operator."""

    n_state: int
    n_bias: int

    def values(self, state: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """Predicted observations, shape (n_obs,)."""

    def jacobians(self, state: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d values / d state, d values / d bias), shapes (n_obs, n_state), (n_obs, n_bias)."""


@dataclass(frozen=True)
class AssimilationProblem:
    """Background, covariances, observed values and the operator binding them.

    ``obs_values`` is held as a read-only copy, one value per observation.
    """

    background_state: np.ndarray
    background_bias: np.ndarray
    state_covariance: CovarianceSpec
    bias_covariance: CovarianceSpec
    obs_covariance: CovarianceSpec
    obs_values: np.ndarray
    operator: ObservationOperator

    def __post_init__(self):
        object.__setattr__(
            self, "background_state", np.asarray(self.background_state, dtype=float)
        )
        object.__setattr__(
            self, "background_bias", np.asarray(self.background_bias, dtype=float)
        )
        obs_values = np.array(self.obs_values, dtype=float)
        if obs_values.ndim != 1:
            raise ValidationError("observed values must be a 1-d vector")
        obs_values.setflags(write=False)
        object.__setattr__(self, "obs_values", obs_values)
        n_state = self.background_state.shape[0]
        n_bias = self.background_bias.shape[0]
        n_obs = obs_values.shape[0]
        if self.state_covariance.dim != n_state:
            raise ValidationError(
                f"state covariance dim {self.state_covariance.dim} != state length {n_state}"
            )
        if self.bias_covariance.dim != n_bias:
            raise ValidationError(
                f"bias covariance dim {self.bias_covariance.dim} != coefficient count {n_bias}"
            )
        if self.obs_covariance.dim != n_obs:
            raise ValidationError(
                f"obs covariance dim {self.obs_covariance.dim} != observation count {n_obs}"
            )
        if self.operator.n_state != n_state or self.operator.n_bias != n_bias:
            raise ValidationError("operator dimensions do not match the problem")

    def background_control(self) -> Control:
        return Control(self.background_state.copy(), self.background_bias.copy())


@dataclass(frozen=True)
class AnalysisResult:
    """Minimizer output: the analysis and its convergence diagnostics."""

    analysis_state: np.ndarray
    analysis_bias: np.ndarray
    final_cost: float
    gradient_norm: float
    iterations: int
    converged: bool


def _check_control(control: Control, problem: AssimilationProblem) -> Control:
    state = np.asarray(control.state, dtype=float)
    bias = np.asarray(control.bias, dtype=float)
    if state.shape != problem.background_state.shape:
        raise ValidationError(
            f"control state shape {state.shape} != background {problem.background_state.shape}"
        )
    if bias.shape != problem.background_bias.shape:
        raise ValidationError(
            f"control bias shape {bias.shape} != background {problem.background_bias.shape}"
        )
    return Control(state, bias)


def innovation(problem: AssimilationProblem, control: Control) -> np.ndarray:
    """Observation-minus-operator residual y - H_hat(x, beta), per observation."""
    control = _check_control(control, problem)
    return problem.obs_values - problem.operator.values(control.state, control.bias)


def cost(
    control: Control, problem: AssimilationProblem, residual: np.ndarray | None = None
) -> float:
    """The three-term quadratic cost at one control point.

    ``residual`` is the innovation at ``control`` when the caller already
    has it; otherwise it is computed here.
    """
    control = _check_control(control, problem)
    dx = control.state - problem.background_state
    db = control.bias - problem.background_bias
    d = innovation(problem, control) if residual is None else residual
    return 0.5 * (
        problem.state_covariance.quadratic(dx)
        + problem.bias_covariance.quadratic(db)
        + problem.obs_covariance.quadratic(d)
    )


def _gradient(problem: AssimilationProblem, control: Control, residual, jac_state, jac_bias):
    """(state part, bias part, R^-1 d) of the gradient, from the innovation and Jacobians."""
    dx = control.state - problem.background_state
    db = control.bias - problem.background_bias
    rinv_d = problem.obs_covariance.solve(residual)
    grad_state = problem.state_covariance.solve(dx) - jac_state.T @ rinv_d
    grad_bias = problem.bias_covariance.solve(db) - jac_bias.T @ rinv_d
    return grad_state, grad_bias, rinv_d


def gradient(control: Control, problem: AssimilationProblem) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the cost, split into (state part, bias part)."""
    control = _check_control(control, problem)
    jac_state, jac_bias = problem.operator.jacobians(control.state, control.bias)
    grad_state, grad_bias, _ = _gradient(
        problem, control, innovation(problem, control), jac_state, jac_bias
    )
    return grad_state, grad_bias


def minimize(
    problem: AssimilationProblem,
    hold_bias_fixed: bool = False,
    on_iteration: Callable[[int, float, float], None] | None = None,
) -> AnalysisResult:
    """Minimize the cost from the background control.

    The control is badly scaled (state curvatures near one, bias curvatures
    in the hundreds), so directions are shaped by a Jacobi preconditioner,
    the diagonal of the Gauss-Newton Hessian refreshed at every iterate;
    convergence is still measured on the plain gradient norm. The first
    step length along each direction is the Gauss-Newton line minimum.
    When the predicted decrease falls below the cost's own floating-point
    evaluation noise the line search cannot certify progress, so the model
    step is accepted outright; the gradient norm is the progress measure
    there.

    Iteration stops once the gradient norm falls to ``GRADIENT_TOLERANCE``
    times max(1, its norm at the background), or after ``MAX_ITERATIONS``
    accepted steps. ``hold_bias_fixed`` freezes the bias coefficients at
    their background values, reproducing a cadence where corrections are
    re-estimated less often than the state. ``on_iteration`` receives
    (iteration, cost, gradient norm) after every accepted step.
    """
    n_state = problem.background_state.shape[0]

    def unflatten(v: np.ndarray) -> Control:
        return Control(v[:n_state], v[n_state:])

    def cost_at(v: np.ndarray):
        # The innovation at v is kept for the gradient there, so each
        # control point evaluates the operator once. The views of v have
        # the problem's shapes by construction; ``cost`` checks them once.
        c = unflatten(v)
        d = problem.obs_values - problem.operator.values(c.state, c.bias)
        return cost(c, problem, d), d

    obs_scale = np.abs(problem.obs_values)

    def grad_and_jac(v: np.ndarray, d: np.ndarray):
        c = unflatten(v)
        jac_state, jac_bias = problem.operator.jacobians(c.state, c.bias)
        gs, gb, rinv_d = _gradient(problem, c, d, jac_state, jac_bias)
        if hold_bias_fixed:
            gb = np.zeros_like(gb)
        cancel_scale = 2.0 * float(np.abs(rinv_d) @ obs_scale)
        return np.concatenate([gs, gb]), jac_state, jac_bias, cancel_scale

    prior_inverse_diag = np.concatenate(
        [
            problem.state_covariance.inverse_diagonal(),
            problem.bias_covariance.inverse_diagonal(),
        ]
    )
    obs_inverse_diag = problem.obs_covariance.inverse_diagonal()

    def jacobi_diagonal(jac_state: np.ndarray, jac_bias: np.ndarray) -> np.ndarray:
        obs_part = np.concatenate(
            [(jac_state**2).T @ obs_inverse_diag, (jac_bias**2).T @ obs_inverse_diag]
        )
        return prior_inverse_diag + obs_part

    def curvature_along(jac_state: np.ndarray, jac_bias: np.ndarray, p: np.ndarray) -> float:
        # Gauss-Newton quadratic model along p; exact for linear operators.
        px, pb = p[:n_state], p[n_state:]
        ap = jac_state @ px + jac_bias @ pb
        return (
            problem.state_covariance.quadratic(px)
            + problem.bias_covariance.quadratic(pb)
            + problem.obs_covariance.quadratic(ap)
        )

    # A non-finite cost raises MinimizationError below; the overflow on the
    # way there would only add floating-point warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        point = np.concatenate([problem.background_state, problem.background_bias])
        j, d = cost_at(point)
        if not np.isfinite(j):
            raise MinimizationError(
                "cost is non-finite at the initial control", problem.background_control()
            )
        g, jac_state, jac_bias, cancel_scale = grad_and_jac(point, d)
        # For a 1-D float vector this is np.linalg.norm's own sqrt(g . g), bit
        # for bit, without its per-call set-up; it is computed once per point.
        g_norm = math.sqrt(float(g @ g))
        tol = GRADIENT_TOLERANCE * max(1.0, g_norm)
        scaled_g = g / jacobi_diagonal(jac_state, jac_bias)

        iterations = 0
        direction = -scaled_g
        while g_norm > tol and iterations < MAX_ITERATIONS:
            slope = float(g @ direction)
            if slope >= 0.0:
                direction = -scaled_g  # restart: direction lost descent
                slope = float(g @ direction)
            curv = curvature_along(jac_state, jac_bias, direction)
            alpha = -slope / curv if curv > 0 else 1.0
            noise_floor = _EPS * (32.0 * abs(j) + cancel_scale)

            if abs(alpha * slope) <= noise_floor:
                # Below cost resolution: take the model step as-is.
                trial = point + alpha * direction
                j_trial, d_trial = cost_at(trial)
                if not np.isfinite(j_trial):
                    raise MinimizationError(
                        "cost became non-finite during line search", unflatten(point)
                    )
            else:
                accepted = False
                for _ in range(_MAX_BACKTRACKS):
                    trial = point + alpha * direction
                    j_trial, d_trial = cost_at(trial)
                    if not np.isfinite(j_trial):
                        raise MinimizationError(
                            "cost became non-finite during line search", unflatten(point)
                        )
                    if j_trial <= j + ARMIJO_C * alpha * slope + noise_floor:
                        accepted = True
                        break
                    alpha *= ARMIJO_SHRINK
                if not accepted:
                    if np.array_equal(direction, -scaled_g):
                        break  # no progress possible along the scaled descent
                    direction = -scaled_g
                    continue

            g_new, jac_state, jac_bias, cancel_scale = grad_and_jac(trial, d_trial)
            scaled_g_new = g_new / jacobi_diagonal(jac_state, jac_bias)
            # Preconditioned Polak-Ribiere with the nonnegativity cap; a
            # negative beta resets to scaled steepest descent automatically.
            beta_pr = float(g_new @ (scaled_g_new - scaled_g)) / float(g @ scaled_g)
            direction = -scaled_g_new + max(0.0, beta_pr) * direction
            point, j, g, scaled_g = trial, j_trial, g_new, scaled_g_new
            g_norm = math.sqrt(float(g @ g))
            iterations += 1
            if on_iteration is not None:
                on_iteration(iterations, j, g_norm)

    result = unflatten(point)
    return AnalysisResult(
        analysis_state=result.state.copy(),
        analysis_bias=result.bias.copy(),
        final_cost=j,
        gradient_norm=g_norm,
        iterations=iterations,
        converged=g_norm <= tol,
    )
