"""Variational analysis with an augmented bias-correction control vector.

The analysis minimizes

    J(x, beta) = 1/2 (x - x_b)' B^-1 (x - x_b)
               + 1/2 (beta - beta_b)' B_beta^-1 (beta - beta_b)
               + 1/2 (y - H_hat(x, beta))' R^-1 (y - H_hat(x, beta))

over the model state x and the bias coefficients beta together, so the bias
correction is re-estimated inside every analysis. The three covariances are
diagonal and enter through their inverses; pinning the state (near-zero B
variances) recovers the bias-only problem. The problem holds the flat
control v = [x, beta] alone: its background and its prior variances are one
vector each in that layout. ``build_problem`` lays them out from a model
state and the observation operator, whose bias background (the template
the truth's observations were synthesized with) is beta_b. ``cost``,
``gradient`` and the minimizer all evaluate v through the same code.

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
from typing import Any, Callable

import numpy as np

from .errors import MinimizationError, ValidationError
from .model import ModelState

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


@dataclass(frozen=True)
class AssimilationProblem:
    """Background, diagonal covariances, observed values and the operator binding them.

    ``background`` and ``prior_variances`` are written over the flat control
    [state, bias], the vector every cost, gradient and minimizer iterate is
    written in; their length is the operator's ``n_state + n_bias``. The
    covariances are held as their variances, one per control value and one
    per observation, positive and finite; there is one observed value per
    observation. One loop reads all four vectors, each into a read-only 1-d
    float copy checked against the operator's count.
    ``operator`` has ``n_state``, ``n_bias`` and ``n_obs``,
    ``values(state, bias)`` and ``jacobians(state, bias)``, as
    ``osse.RadianceOperator`` has; the Jacobians it returns may be its own
    buffers, which its next ``jacobians`` call overwrites.
    """

    background: np.ndarray
    prior_variances: np.ndarray
    obs_values: np.ndarray
    obs_variances: np.ndarray
    operator: Any

    def __post_init__(self):
        n_control = self.operator.n_state + self.operator.n_bias
        n_obs = self.operator.n_obs
        for name, count, what in (
            ("background", n_control, "control values"),
            ("prior_variances", n_control, "control values"),
            ("obs_values", n_obs, "observations"),
            ("obs_variances", n_obs, "observations"),
        ):
            vector = np.array(getattr(self, name), dtype=float)
            if vector.shape != (count,):
                raise ValidationError(
                    f"{name} must be a 1-d vector of the operator's {count} {what}, "
                    f"got shape {vector.shape}"
                )
            vector.setflags(write=False)
            object.__setattr__(self, name, vector)
        for name in ("prior_variances", "obs_variances"):
            variances = getattr(self, name)
            if np.any(variances <= 0) or not np.all(np.isfinite(variances)):
                raise ValidationError(f"{name} must be positive and finite")

    @property
    def n_state(self) -> int:
        return self.operator.n_state


def build_problem(
    background: ModelState,
    operator,
    obs_values: np.ndarray,
    state_variance: float,
    bias_variance: float,
    obs_stddev_k: float,
) -> AssimilationProblem:
    """Assemble the analysis problem for one cycle on ``operator`` with
    diagonal covariances: ``state_variance`` per state value,
    ``bias_variance`` per coefficient and ``obs_stddev_k`` squared per
    observation. The background control is the model state's vector
    followed by the operator's ``bias_background``, the bias template the
    truth's observations were synthesized with.

    The operator holds everything that stays fixed across a scenario's
    analyses, so ``run_scenario`` builds it once, synthesizes with it and
    passes it to every call; a problem adds only the background, the
    observed values and the covariances."""
    return AssimilationProblem(
        background=np.concatenate([background.vector, operator.bias_background]),
        prior_variances=np.repeat(
            [state_variance, bias_variance], [operator.n_state, operator.n_bias]
        ),
        obs_values=obs_values,
        obs_variances=np.full(len(obs_values), obs_stddev_k**2),
        operator=operator,
    )


@dataclass(frozen=True)
class AnalysisResult:
    """Minimizer output: the analysis and its convergence diagnostics."""

    analysis_state: np.ndarray
    analysis_bias: np.ndarray
    final_cost: float
    gradient_norm: float
    iterations: int
    converged: bool


def _check_control(v, problem: AssimilationProblem) -> np.ndarray:
    """The flat control [state, bias] as a float vector of the problem's length."""
    v = np.asarray(v, dtype=float)
    if v.shape != problem.background.shape:
        raise ValidationError(f"control shape {v.shape} != background {problem.background.shape}")
    return v


def _blocks(v: np.ndarray, n_state: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A flat control vector with its state and bias views, made once."""
    return v, v[:n_state], v[n_state:]


def _evaluation(problem: AssimilationProblem) -> tuple[Callable, Callable]:
    """The evaluation of a control point: two closures over ``problem`` that
    take (vector, state view, bias view) triples and own two work vectors.

    ``cost_at(v, weighted)`` returns the cost and R^-1 d from one ``values``
    call: dx' B^-1 dx, db' B_beta^-1 db and d' R^-1 d summed in that order and
    halved, for [dx, db] = v - x_b and the innovation d, with (v - x_b) / B
    written into ``weighted``. ``gradient_at(v, g, rinv_d)`` subtracts
    J' R^-1 d, each block one ``np.matmul`` (which is ``@``), from that
    (v - x_b) / B in ``g``, and returns the Jacobians of one ``jacobians``
    call. Called right after ``cost_at`` at the same point, that call reuses
    the columns ``values`` left in the operator. The Jacobians may be the
    operator's buffers, which the next ``gradient_at`` overwrites.
    """
    n_state = problem.n_state
    obs_values, obs_variances = problem.obs_values, problem.obs_variances
    background, prior_variances = problem.background, problem.prior_variances
    values, jacobians = problem.operator.values, problem.operator.jacobians
    subtract, divide, matmul = np.subtract, np.divide, np.matmul
    (dx, dx_state, dx_bias), (obs_part, obs_part_state, obs_part_bias) = (
        _blocks(w, n_state) for w in np.empty((2, background.shape[0]))
    )

    def cost_at(v, weighted):
        v, v_state, v_bias = v
        weighted, weighted_state, weighted_bias = weighted
        d = subtract(obs_values, values(v_state, v_bias))
        subtract(v, background, dx)
        divide(dx, prior_variances, weighted)
        rinv_d = divide(d, obs_variances)
        return float(
            0.5 * (dx_state.dot(weighted_state) + dx_bias.dot(weighted_bias) + d.dot(rinv_d))
        ), rinv_d

    def gradient_at(v, g, rinv_d):
        jac_state, jac_bias = jacobians(v[1], v[2])
        matmul(rinv_d, jac_state, obs_part_state)
        matmul(rinv_d, jac_bias, obs_part_bias)
        subtract(g[0], obs_part, g[0])
        return jac_state, jac_bias

    return cost_at, gradient_at


def cost(v, problem: AssimilationProblem) -> float:
    """The three-term quadratic cost at the flat control ``v`` (see ``_evaluation``)."""
    v = _check_control(v, problem)
    cost_at, _ = _evaluation(problem)
    return cost_at(_blocks(v, problem.n_state), _blocks(np.empty_like(v), problem.n_state))[0]


def gradient(v, problem: AssimilationProblem) -> np.ndarray:
    """The cost's gradient at the flat control ``v``, as [state, bias] (see ``_evaluation``)."""
    v = _check_control(v, problem)
    cost_at, gradient_at = _evaluation(problem)
    point, g = _blocks(v, problem.n_state), _blocks(np.empty_like(v), problem.n_state)
    gradient_at(point, g, cost_at(point, g)[1])
    return g[0]


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

    Every iterate, and ``MinimizationError.last_control``, is one flat
    control [state, bias]. Each point is worked out once by the closures of
    ``_evaluation``, built once per call; an accepted trial's (v - x_b) / B
    becomes its gradient in place, and only then is ``jacobians`` called,
    reusing the columns its ``values`` call left in the operator. The
    Jacobians it returns may be the operator's buffers: J p is formed before
    the line search, and only an accepted trial calls ``jacobians`` again.
    The search direction lives in a vector allocated once per call.

    Inner products are ``ndarray.dot``, the same BLAS ddot as ``float(a @ b)``
    at less cost per call, with the state and bias parts of each weighted sum
    kept two dots. The curvature product J p stays one dense gemv per block (a
    sparse form, or one product over both blocks, rounds differently); it and
    the Jacobi diagonal's R^-1 J^2 also use ``ndarray.dot``. Only with a single
    observation does numpy's dot take another BLAS path, which can return -0.0
    where ``@`` returns +0.0; a sum of squares and an add to the positive B^-1
    lose that sign, and J' R^-1 d, where it could reach the result, keeps
    ``np.matmul``. Every value is reused only where the same operations made
    it, so the result matches the first-written minimizer bit for bit, and
    ``cost`` and ``gradient`` by construction.
    """
    n_state = problem.n_state
    obs_variances, prior_variances = problem.obs_variances, problem.prior_variances
    obs_scale = np.abs(problem.obs_values)
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    negative = np.negative
    cost_at, gradient_at = _evaluation(problem)
    # Work triples. The accepted point and the trial swap on acceptance, and so
    # do their (v - x_b) / B; the accepted one's becomes its gradient in place.
    point, trial, g, weighted, (p_weighted, pw_state, pw_bias), jacobi, p = (
        _blocks(v, n_state) for v in np.empty((7, problem.background.shape[0]))
    )
    jacobi, jacobi_state, jacobi_bias = jacobi
    direction, p_state, p_bias = p
    point[0][:] = problem.background

    def precondition(v, g, rinv_d):
        """The gradient at v into ``g``; its Jacobi-scaled form, Jacobians and cancel scale."""
        jac_state, jac_bias = gradient_at(v, g, rinv_d)
        if hold_bias_fixed:
            g[2].fill(0.0)
        # Jacobi preconditioner: the Gauss-Newton Hessian's diagonal,
        # B^-1 plus R^-1 weighted squares of each Jacobian column.
        obs_inverse.dot(multiply(jac_state, jac_state), jacobi_state)
        obs_inverse.dot(multiply(jac_bias, jac_bias), jacobi_bias)
        add(prior_inverse, jacobi, jacobi)
        cancel_scale = 2.0 * np.abs(rinv_d).dot(obs_scale)
        return divide(g[0], jacobi), jac_state, jac_bias, cancel_scale

    # A non-finite cost, or gradient norm at the background, raises
    # MinimizationError below; the overflow on the way would only add warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        prior_inverse = divide(1.0, prior_variances)
        obs_inverse = divide(1.0, obs_variances)
        j, rinv_d = cost_at(point, g)
        if not math.isfinite(j):
            raise MinimizationError("cost is non-finite at the initial control", point[0])
        scaled_g, jac_state, jac_bias, cancel_scale = precondition(point, g, rinv_d)
        # For a 1-D float vector this is np.linalg.norm's own sqrt(g . g), bit
        # for bit, without its per-call set-up; it is computed once per point.
        g_norm = math.sqrt(g[0].dot(g[0]))
        if not math.isfinite(g_norm):  # so would its tolerance be, and nothing would move
            raise MinimizationError("gradient norm is non-finite at the initial control", point[0])
        tol = GRADIENT_TOLERANCE * max(1.0, g_norm)

        iterations = 0
        negative(scaled_g, direction)
        while g_norm > tol and iterations < MAX_ITERATIONS:
            slope = g[0].dot(direction)
            if slope >= 0.0:
                negative(scaled_g, direction)  # restart: direction lost descent
                slope = g[0].dot(direction)
            # Gauss-Newton quadratic model along p; exact for linear operators.
            image = add(jac_state.dot(p_state), jac_bias.dot(p_bias))
            divide(direction, prior_variances, p_weighted)
            curv = p_state.dot(pw_state) + p_bias.dot(pw_bias)
            curv = curv + image.dot(divide(image, obs_variances))
            alpha = -slope / curv if curv > 0 else 1.0
            noise_floor = _EPS * (32.0 * abs(j) + cancel_scale)
            # Below cost resolution the first trial, the model step, is taken as-is.
            below_floor = abs(alpha * slope) <= noise_floor
            for _ in range(_MAX_BACKTRACKS):
                # Each trial is point + alpha * direction, added into the product.
                multiply(alpha, direction, trial[0])
                add(point[0], trial[0], trial[0])
                j_trial, rinv_d = cost_at(trial, weighted)
                if not math.isfinite(j_trial):
                    raise MinimizationError("cost became non-finite during line search", point[0])
                if below_floor or j_trial <= j + ARMIJO_C * alpha * slope + noise_floor:
                    break
                alpha *= ARMIJO_SHRINK
            else:  # every trial rejected
                if np.array_equal(direction, -scaled_g):
                    break  # no progress possible along the scaled descent
                negative(scaled_g, direction)
                continue

            scaled_g_new, jac_state, jac_bias, cancel_scale = precondition(trial, weighted, rinv_d)
            # Preconditioned Polak-Ribiere with the nonnegativity cap; a
            # negative beta resets to scaled steepest descent automatically.
            beta_pr = weighted[0].dot(scaled_g_new - scaled_g) / g[0].dot(scaled_g)
            multiply(max(0.0, beta_pr), direction, direction)
            subtract(direction, scaled_g_new, direction)
            point, trial, g, weighted = trial, point, weighted, g
            j, scaled_g = j_trial, scaled_g_new
            g_norm = math.sqrt(g[0].dot(g[0]))
            iterations += 1
            if on_iteration is not None:
                on_iteration(iterations, j, g_norm)

    return AnalysisResult(
        analysis_state=point[1].copy(),
        analysis_bias=point[2].copy(),
        final_cost=j,
        gradient_norm=g_norm,
        iterations=iterations,
        converged=g_norm <= tol,
    )
