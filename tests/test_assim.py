"""Tests for the variational analysis: cost, gradient, minimizer."""

import contextlib
import dataclasses
import inspect
import math
import sys
from collections import Counter

import numpy as np
import pytest

import wxleak.experiment as experiment
from wxleak import assim
from wxleak.assim import (
    AssimilationProblem,
    build_problem,
    cost,
    gradient,
    minimize,
)
from wxleak.errors import MinimizationError, ValidationError
from wxleak.model import ModelParams, ModelState, nature_run
from wxleak.osse import (
    BiasModel,
    ColumnMapping,
    OperatorWork,
    RadianceOperator,
    synthesize_observations,
)


@dataclasses.dataclass(frozen=True)
class LinearOperator:
    """Affine observation operator: values = Hx @ state + Hb @ bias + offset."""

    state_matrix: np.ndarray
    bias_matrix: np.ndarray
    offset: np.ndarray

    @property
    def n_state(self) -> int:
        return self.state_matrix.shape[1]

    @property
    def n_bias(self) -> int:
        return self.bias_matrix.shape[1]

    def work(self):
        return None

    def values(self, state, bias, work=None):
        return self.state_matrix @ state + self.bias_matrix @ bias + self.offset

    def jacobians(self, state, bias, work=None):
        return self.state_matrix, self.bias_matrix


def scalar_bias_problem(obs_variance=1.0):
    """Bias-only scalar case: linear operator x_fixed + beta, innovation 1."""
    x_fixed = 264.715
    operator = LinearOperator(np.zeros((1, 1)), np.ones((1, 1)), np.array([x_fixed]))
    return AssimilationProblem(
        background=np.array([0.0, 0.0]),
        prior_variances=[1.0, 1.0],
        obs_variances=[obs_variance],
        obs_values=np.array([x_fixed + 1.0]),
        operator=operator,
    )


def random_linear_problem(seed, n_obs=None):
    rng = np.random.default_rng(seed)
    n_state = int(rng.integers(3, 41))
    n_bias = int(rng.integers(1, 4))
    drawn_n_obs = int(rng.integers(2, 21))
    n_obs = drawn_n_obs if n_obs is None else n_obs
    state_matrix = rng.normal(size=(n_obs, n_state)) * 0.5
    bias_matrix = rng.normal(size=(n_obs, n_bias))
    offset = rng.normal(size=n_obs)
    operator = LinearOperator(state_matrix, bias_matrix, offset)
    state_var = rng.uniform(0.5, 2.0, n_state)
    bias_var = rng.uniform(0.2, 1.0, n_bias)
    obs_var = rng.uniform(0.05, 0.3, n_obs)
    problem = AssimilationProblem(
        background=np.concatenate([rng.normal(size=n_state), rng.normal(size=n_bias) * 0.1]),
        prior_variances=np.concatenate([state_var, bias_var]),
        obs_variances=obs_var,
        obs_values=rng.normal(size=n_obs) + offset,
        operator=operator,
    )
    return problem


def blocks(problem, flat):
    """The state and bias blocks of a vector in the flat control layout."""
    return flat[: problem.n_state], flat[problem.n_state :]


def direct_solve(problem):
    """Dense normal-equations oracle for linear operators."""
    op = problem.operator
    a = np.hstack([op.state_matrix, op.bias_matrix])
    state_variances, bias_variances = blocks(problem, problem.prior_variances)
    c_inv = np.diag(np.concatenate([1.0 / state_variances, 1.0 / bias_variances]))
    r_inv = np.diag(1.0 / problem.obs_variances)
    rhs = c_inv @ problem.background + a.T @ r_inv @ (problem.obs_values - op.offset)
    return np.linalg.solve(c_inv + a.T @ r_inv @ a, rhs)


def radiance_problem(seed, grid_size=12, n_obs=6, predictors=("surface_temperature", "scan_position")):
    """Random nonlinear problem on the real observation operator."""
    rng = np.random.default_rng(seed)
    truth = nature_run(ModelParams(), seed, 150, 0, grid_size=grid_size).final
    mapping = ColumnMapping()
    bias = BiasModel(
        float(rng.normal(0, 0.3)),
        tuple(rng.normal(0, 0.01, len(predictors))),
        predictors,
    )
    locations = tuple(sorted(rng.choice(grid_size, size=n_obs, replace=False).tolist()))
    delta_tb = float(rng.uniform(0, 0.5))
    operator = RadianceOperator(mapping, bias, locations, grid_size)
    obs_values = synthesize_observations(truth, operator, seed + 1, 0.3) + delta_tb
    background = ModelState(
        truth.temperature_field + rng.normal(0, 0.5, grid_size),
        np.maximum(0.0, truth.moisture_field + rng.normal(0, 0.5, grid_size)),
    )
    return build_problem(background, operator, obs_values, 1.0, 0.5, 0.3)


def finite_difference_gradient(problem, flat, h_scale=1e-5):
    out = np.zeros_like(flat)
    for i in range(flat.shape[0]):
        h = h_scale * max(1.0, abs(flat[i]))
        up = flat.copy()
        down = flat.copy()
        up[i] += h
        down[i] -= h
        out[i] = (cost(up, problem) - cost(down, problem)) / (2 * h)
    return out


class TestVariances:
    """Each covariance is a vector of positive, finite variances, one per
    control value (state, then bias) or observation, checked at construction."""

    @staticmethod
    def problem_with(**variances):
        operator = LinearOperator(np.zeros((2, 2)), np.ones((2, 1)), np.zeros(2))
        kwargs = dict(
            background=np.zeros(3),
            prior_variances=[1.0, 1.0, 1.0],
            obs_variances=[1.0, 1.0],
            obs_values=np.array([260.0, 261.0]),
            operator=operator,
        )
        return AssimilationProblem(**{**kwargs, **variances})

    @pytest.mark.parametrize(
        "name, bad", [("prior_variances", [1.0, 0.0, 1.0]), ("obs_variances", [1.0, 0.0])]
    )
    def test_nonpositive_variance_rejected(self, name, bad):
        with pytest.raises(ValidationError):
            self.problem_with(**{name: bad})

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("prior_variances", [1.0, np.inf, 1.0]),
            ("prior_variances", [1.0, 1.0, np.nan]),
            ("obs_variances", [[1.0, 0.0], [0.0, 1.0]]),
        ],
    )
    def test_non_finite_or_matrix_variances_rejected(self, name, bad):
        with pytest.raises(ValidationError):
            self.problem_with(**{name: bad})

    def test_held_read_only_copies(self):
        source = np.array([2.0, 4.0, 0.5])
        background = np.array([1.0, 2.0, 3.0])
        problem = self.problem_with(prior_variances=source, background=background)
        source[0] = background[0] = 9.0
        assert np.array_equal(problem.prior_variances, [2.0, 4.0, 0.5])
        assert np.array_equal(problem.background, [1.0, 2.0, 3.0])
        for name in ("prior_variances", "obs_variances", "background", "obs_values"):
            assert not getattr(problem, name).flags.writeable, name


class TestCost:
    def test_zero_at_perfect_background(self):
        """All three terms vanish when background reproduces the observations."""
        problem = radiance_problem(1)
        control = problem.background
        perfect_y = problem.operator.values(*blocks(problem, problem.background))
        perfect = dataclasses.replace(problem, obs_values=perfect_y)
        assert cost(control, perfect) == 0.0

    def test_scalar_case_at_background(self):
        problem = scalar_bias_problem()
        assert math.isclose(cost(problem.background, problem), 0.5, rel_tol=1e-12)

    def test_scalar_case_at_optimum(self):
        problem = scalar_bias_problem()
        control = np.array([0.0, 0.5])
        assert math.isclose(cost(control, problem), 0.25, rel_tol=1e-12)

    def test_nonnegative(self):
        for seed in range(5):
            problem = random_linear_problem(seed)
            rng = np.random.default_rng(seed + 100)
            control = problem.background + rng.normal(size=problem.background.shape)
            assert cost(control, problem) >= 0.0

    def test_dimension_mismatch_rejected(self):
        problem = scalar_bias_problem()
        with pytest.raises(ValidationError):
            cost(np.zeros(3), problem)
        with pytest.raises(ValidationError):
            gradient(np.zeros(1), problem)

    @pytest.mark.parametrize(
        "background, prior_variances",
        [
            (np.zeros(3), [1.0, 1.0]),
            (np.zeros(2), [1.0, 1.0, 1.0]),
            (np.zeros((3, 1)), [1.0, 1.0, 1.0]),
        ],
    )
    def test_control_dimension_mismatch_rejected(self, background, prior_variances):
        """The background and the prior variances span the operator's state and bias."""
        with pytest.raises(ValidationError):
            AssimilationProblem(
                background=background,
                prior_variances=prior_variances,
                obs_variances=[1.0],
                obs_values=np.array([260.0]),
                operator=LinearOperator(np.zeros((1, 2)), np.ones((1, 1)), np.zeros(1)),
            )


class TestGradient:
    def test_zero_at_stationary_point(self):
        problem = radiance_problem(2)
        control = problem.background
        perfect_y = problem.operator.values(*blocks(problem, problem.background))
        perfect = dataclasses.replace(problem, obs_values=perfect_y)
        assert np.all(gradient(control, perfect) == 0.0)

    def test_scalar_hand_derivative(self):
        problem = scalar_bias_problem()
        gb = gradient(problem.background, problem)[problem.n_state:]
        assert math.isclose(gb[0], -1.0, rel_tol=1e-12)

    def test_matches_finite_differences_linear(self):
        for seed in range(10):
            problem = random_linear_problem(seed)
            rng = np.random.default_rng(seed + 50)
            control = problem.background + 0.3 * rng.normal(size=problem.background.shape)
            analytic = gradient(control, problem)
            fd = finite_difference_gradient(problem, control)
            assert np.linalg.norm(analytic - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_matches_finite_differences_radiance(self):
        """Analytic gradient of the nonlinear operator, predictors included."""
        for seed in range(10):
            problem = radiance_problem(seed)
            control = problem.background
            analytic = gradient(control, problem)
            fd = finite_difference_gradient(problem, control)
            assert np.linalg.norm(analytic - fd) <= 1e-6 * np.linalg.norm(fd)


class TestInnovation:
    """The residual y - H_hat(x, beta), as the cost and the gradient read it."""

    def test_perfect_fit_is_zero(self):
        """At the background, observations the operator fits exactly leave no
        cost and no gradient."""
        problem = radiance_problem(3)
        control = problem.background
        perfect_y = problem.operator.values(*blocks(problem, problem.background))
        perfect = dataclasses.replace(problem, obs_values=perfect_y)
        assert cost(control, perfect) == 0.0
        assert np.all(gradient(control, perfect) == 0.0)

    def test_single_observation_hand_value(self):
        """Innovation 260 - 264.715 = -4.715: cost d^2 / 2, bias gradient -d."""
        operator = LinearOperator(np.zeros((1, 1)), np.ones((1, 1)), np.array([264.715]))
        problem = AssimilationProblem(
            background=np.zeros(2),
            prior_variances=[1.0, 1.0],
            obs_variances=[1.0],
            obs_values=np.array([260.0]),
            operator=operator,
        )
        assert math.isclose(cost(problem.background, problem), 0.5 * 4.715**2, rel_tol=1e-12)
        g = gradient(problem.background, problem)
        assert g[0] == 0.0 and math.isclose(g[1], 4.715, rel_tol=1e-12)

    def test_uniform_shift_appears_per_observation(self):
        """A constant brightness increase shows up one-for-one in the residual:
        the gradient moves by -J' R^-1 times the shift in every observation."""
        problem = radiance_problem(4)
        control = problem.background
        base = gradient(control, problem)
        shifted = dataclasses.replace(problem, obs_values=problem.obs_values + 0.268)
        jac_state, jac_bias = problem.operator.jacobians(*blocks(problem, control))
        shift = np.full(len(problem.obs_values), 0.268) / problem.obs_variances
        expected = -np.concatenate([shift @ jac_state, shift @ jac_bias])
        diff = gradient(control, shifted) - base
        assert np.all(np.abs(diff - expected) <= 1e-12 * np.abs(base).max())


class TestMinimize:
    def test_scalar_closed_form(self):
        result = minimize(scalar_bias_problem())
        assert abs(result.analysis_bias[0] - 0.5) <= 1e-6
        assert abs(result.final_cost - 0.25) <= 1e-8
        assert result.converged

    def test_already_stationary_zero_iterations(self):
        x_fixed = 264.715
        operator = LinearOperator(np.zeros((1, 1)), np.ones((1, 1)), np.array([x_fixed]))
        problem = AssimilationProblem(
            background=np.array([1.0, 0.25]),
            prior_variances=[1.0, 1.0],
            obs_variances=[1.0],
            obs_values=np.array([x_fixed + 0.25]),
            operator=operator,
        )
        result = minimize(problem)
        assert result.iterations == 0
        assert result.converged
        assert result.analysis_state[0] == 1.0 and result.analysis_bias[0] == 0.25

    def test_linear_problems_match_direct_solve(self):
        for seed in range(10):
            problem = random_linear_problem(seed)
            result = minimize(problem)
            expected = direct_solve(problem)
            got = np.concatenate([result.analysis_state, result.analysis_bias])
            assert result.converged
            assert np.linalg.norm(got - expected) <= 1e-6 * np.linalg.norm(expected)

    def test_iteration_cap_stops_unconverged(self, monkeypatch):
        monkeypatch.setattr(assim, "MAX_ITERATIONS", 2)
        result = minimize(radiance_problem(21))
        assert result.iterations == 2
        assert not result.converged

    def test_cost_never_above_background(self):
        for seed in range(5):
            problem = random_linear_problem(seed + 40)
            result = minimize(problem)
            assert result.final_cost <= cost(problem.background, problem)
            assert result.final_cost >= 0.0

    def test_converged_implies_tolerance(self):
        problem = random_linear_problem(77)
        result = minimize(problem)
        g0 = gradient(problem.background, problem)
        tolerance = 1e-8 * max(1.0, float(np.linalg.norm(g0)))
        assert result.converged
        assert result.gradient_norm <= tolerance

    def test_obs_variance_to_infinity_recovers_background_bias(self):
        result = minimize(scalar_bias_problem(obs_variance=1e12))
        assert abs(result.analysis_bias[0] - 0.0) <= 1e-6

    def test_obs_variance_to_zero_drives_innovation_to_zero(self):
        problem = scalar_bias_problem(obs_variance=1e-12)
        result = minimize(problem)
        d = problem.obs_values - problem.operator.values(
            result.analysis_state, result.analysis_bias
        )
        assert abs(d[0]) <= 1e-6

    def test_pinned_state_recovers_bias_only_analysis(self):
        """Near-zero state variances reduce the problem to its bias-only form."""
        x_fixed = 264.715
        operator = LinearOperator(np.zeros((1, 1)), np.ones((1, 1)), np.array([x_fixed]))
        problem = AssimilationProblem(
            background=np.array([3.0, 0.0]),
            prior_variances=[1e-12, 1.0],
            obs_variances=[1.0],
            obs_values=np.array([x_fixed + 1.0]),
            operator=operator,
        )
        result = minimize(problem)
        assert abs(result.analysis_state[0] - 3.0) <= 1e-9
        assert abs(result.analysis_bias[0] - 0.5) <= 1e-6

    def test_hold_bias_fixed(self):
        problem = radiance_problem(9)
        result = minimize(problem, hold_bias_fixed=True)
        assert np.array_equal(result.analysis_bias, problem.background[problem.n_state :])
        assert result.final_cost <= cost(problem.background, problem)

    def test_radiance_problems_converge(self):
        for seed in range(5):
            result = minimize(radiance_problem(seed + 20))
            assert result.converged, seed

    def test_permuting_observations_leaves_analysis_invariant(self):
        problem = radiance_problem(6)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(problem.obs_values))
        permuted = AssimilationProblem(
            background=problem.background,
            prior_variances=problem.prior_variances,
            obs_variances=problem.obs_variances[perm],
            obs_values=problem.obs_values[perm],
            operator=_permuted_operator(problem.operator, perm),
        )
        control = problem.background
        assert abs(cost(control, problem) - cost(control, permuted)) < 1e-10
        assert np.allclose(gradient(control, problem), gradient(control, permuted), atol=1e-10)
        r_a = minimize(problem)
        r_b = minimize(permuted)
        assert np.allclose(r_a.analysis_state, r_b.analysis_state, atol=1e-10)
        assert np.allclose(r_a.analysis_bias, r_b.analysis_bias, atol=1e-10)

    def test_non_finite_cost_raises_with_last_iterate(self):
        """An operator that overflows along the search path reports the last finite point."""
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(MinimizationError) as excinfo:
                minimize(exploding_problem(0.0))
        assert excinfo.value.last_control is not None
        assert np.all(np.isfinite(excinfo.value.last_control))


class ExplodingOperator:
    """values = exp(state) + bias: overflows once the state passes about 709."""

    n_state = 1
    n_bias = 1

    def work(self):
        return None

    def values(self, state, bias, work=None):
        with np.errstate(over="ignore"):
            return np.array([float(np.exp(state[0])) + bias[0]])

    def jacobians(self, state, bias, work=None):
        with np.errstate(over="ignore"):
            return np.array([[float(np.exp(state[0]))]]), np.array([[1.0]])


def exploding_problem(state):
    """A problem on ``ExplodingOperator`` whose tight observation pulls the
    state up from its background ``state`` until the cost overflows (from 0.0
    the line search reaches it; from 1000.0 the background cost is already
    non-finite)."""
    return AssimilationProblem(
        background=np.array([state, 0.0]),
        prior_variances=[1.0, 1.0],
        obs_variances=[1e-8],
        obs_values=np.array([1e3]),
        operator=ExplodingOperator(),
    )


def _permuted_operator(operator, perm):
    class Permuted:
        n_state = operator.n_state
        n_bias = operator.n_bias

        def work(self):
            return operator.work()

        def values(self, state, bias, work=None):
            return operator.values(state, bias, work)[perm]

        def jacobians(self, state, bias, work=None):
            jac_state, jac_bias = operator.jacobians(state, bias, work)
            return jac_state[perm], jac_bias[perm]

    return Permuted()


class ReferenceRadianceOperator:
    """The radiance operator with no set-up at construction: predictor
    columns are chosen by name, index arrays built and the predictor matrix
    stacked on every call, in the same arithmetic order as
    ``RadianceOperator``. It takes a work object and ignores it, so every
    call recomputes everything and returns fresh arrays."""

    def __init__(self, operator):
        self.op = operator
        self.n_state = operator.n_state
        self.n_bias = operator.n_bias

    def _columns(self, state):
        locs = np.array(self.op.obs_locations, dtype=int)
        t_surf = self.op.mapping.surface_offset_k + state[locs]
        q_raw = state[self.op.grid_size + locs]
        return t_surf, np.maximum(0.0, q_raw), q_raw > 0.0

    def _predictor_matrix(self, t_surf):
        scan = np.array(self.op.obs_locations, dtype=float)
        columns = [
            t_surf if name == "surface_temperature" else scan
            for name in self.op.bias_template.predictors
        ]
        if not columns:
            return np.zeros((len(t_surf), 0))
        return np.column_stack(columns)

    def work(self):
        return None

    def values(self, state, bias, work=None):
        t_surf, q, _ = self._columns(state)
        mapping = self.op.mapping
        w = np.exp(-mapping.opacity_coefficient * q)
        h = t_surf * w + mapping.atmosphere_temperature_k * (1.0 - w)
        return h + bias[0] + self._predictor_matrix(t_surf) @ bias[1:]

    def jacobians(self, state, bias, work=None):
        t_surf, q, active = self._columns(state)
        kappa = self.op.mapping.opacity_coefficient
        w = np.exp(-kappa * q)
        d_dtemp = w.copy()
        d_dmoist = kappa * (self.op.mapping.atmosphere_temperature_k - t_surf) * w
        for coeff, name in zip(bias[1:], self.op.bias_template.predictors):
            d_dtemp += coeff * float(name == "surface_temperature")
        d_dmoist = np.where(active, d_dmoist, 0.0)
        n_obs = len(t_surf)
        rows = np.arange(n_obs)
        locs = np.array(self.op.obs_locations, dtype=int)
        jac_state = np.zeros((n_obs, self.n_state))
        jac_state[rows, locs] = d_dtemp
        jac_state[rows, self.op.grid_size + locs] = d_dmoist
        jac_bias = np.empty((n_obs, self.n_bias))
        jac_bias[:, 0] = 1.0
        jac_bias[:, 1:] = self._predictor_matrix(t_surf)
        return jac_state, jac_bias


class TestOperatorEvaluations:
    """The analysis evaluates the operator once per control point."""

    @pytest.mark.parametrize("hold_bias_fixed", [False, True])
    def test_call_counts(self, monkeypatch, hold_bias_fixed):
        """One ``values`` call per distinct control point, and one ``jacobians``
        call per accepted point plus one at the background, each at the point
        of the ``values`` call just before it and through the same work
        object. The wrappers forward every argument, as the benchmark's
        tracer does."""
        calls = []

        def counted(name):
            original = getattr(RadianceOperator, name)

            def wrapper(self, state, bias, *args, **kwargs):
                point = np.concatenate([state, bias]).tobytes()
                calls.append((name, point, *args, *kwargs.values()))
                return original(self, state, bias, *args, **kwargs)

            monkeypatch.setattr(RadianceOperator, name, wrapper)

        counted("values")
        counted("jacobians")
        for seed in range(3):
            problem = radiance_problem(seed + 40)  # its synthesis evaluates the operator
            calls.clear()
            assert problem.operator.n_bias == 3
            result = minimize(problem, hold_bias_fixed=hold_bias_fixed)
            assert result.iterations > 0
            points = [point for name, point, _ in calls if name == "values"]
            assert len(points) == len(set(points)) > result.iterations
            jacobians = [i for i, (name, _, _) in enumerate(calls) if name == "jacobians"]
            assert len(jacobians) == result.iterations + 1
            for i in jacobians:
                assert calls[i - 1][:2] == ("values", calls[i][1])
            assert len({id(work) for _, _, work in calls}) == 1
            assert isinstance(calls[0][2], OperatorWork)

    @pytest.mark.parametrize("hold_bias_fixed", [False, True])
    def test_one_control_check_per_cost_evaluation(self, monkeypatch, hold_bias_fixed):
        """``cost`` and ``gradient`` check the control they are given, once per
        call; the minimizer builds its iterates in the background's layout
        and calls neither them nor the check."""
        counts = Counter()
        for name in ("_check_control", "cost", "gradient"):
            original = getattr(assim, name)

            def wrapper(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(assim, name, wrapper)
        problem = radiance_problem(41)
        result = minimize(problem, hold_bias_fixed=hold_bias_fixed)
        assert result.iterations > 0
        assert counts == Counter()
        control = np.concatenate([result.analysis_state, result.analysis_bias])
        assim.cost(control, problem)
        assim.gradient(control, problem)
        assert counts == Counter(_check_control=2, cost=1, gradient=1)

    @pytest.mark.parametrize("hold_bias_fixed", [False, True])
    def test_final_cost_is_cost_at_the_analysis(self, hold_bias_fixed):
        """The cost the minimizer reports is ``cost`` at the control it returns,
        bit for bit."""
        problems = [radiance_problem(seed) for seed in (3, 12, 40)]
        problems += [random_linear_problem(seed) for seed in range(5)]
        for problem in problems:
            result = minimize(problem, hold_bias_fixed=hold_bias_fixed)
            control = np.concatenate([result.analysis_state, result.analysis_bias])
            assert _same_bits(result.final_cost, cost(control, problem))

    def test_gradient_norm_is_gradient_at_the_analysis(self):
        """The gradient norm the minimizer reports is that of ``gradient`` at
        the control it returns, bit for bit: the run's gradient is the one
        ``wxleak check`` compares with finite differences."""
        problems = [radiance_problem(seed) for seed in (3, 12, 40)]
        problems += [random_linear_problem(seed) for seed in range(5)]
        for problem in problems:
            result = minimize(problem)
            g = gradient(np.concatenate([result.analysis_state, result.analysis_bias]), problem)
            assert _same_bits(result.gradient_norm, math.sqrt(g.dot(g)))

    @pytest.mark.parametrize(
        "predictors",
        [
            (),
            ("scan_position",),
            ("surface_temperature", "scan_position"),
            ("scan_position", "surface_temperature"),
        ],
    )
    def test_operator_bitwise_equal_reference(self, predictors):
        """``values`` and ``jacobians`` give the reference's bytes, called
        without a work object and through one work shared by both calls, also
        at a state whose first three observed columns are dry (moisture 0.0,
        -0.0 and -1.5), where d/dq is an exact +0.0."""
        problem = radiance_problem(11, predictors=predictors)
        operator = problem.operator
        reference = ReferenceRadianceOperator(operator)
        rng = np.random.default_rng(5)
        background_state, background_bias = blocks(problem, problem.background)
        states = [background_state + rng.normal(0.0, 3.0, operator.n_state) for _ in range(5)]
        dry = background_state.copy()
        dry_cells = operator.grid_size + np.array(operator.obs_locations[:3])
        dry[dry_cells] = (0.0, -0.0, -1.5)
        states.append(dry)
        work = operator.work()
        for state in states:
            bias = background_bias + rng.normal(0.0, 0.1, operator.n_bias)
            expected = (reference.values(state, bias), *reference.jacobians(state, bias))
            for got in (
                (operator.values(state, bias), *operator.jacobians(state, bias)),
                (operator.values(state, bias, work), *operator.jacobians(state, bias, work)),
            ):
                assert all(_same_bits(a, b) for a, b in zip(got, expected))
        jac_state = operator.jacobians(dry, bias, work)[0]
        assert _same_bits(jac_state[np.arange(3), dry_cells], np.zeros(3))

    def test_work_holding_another_state_is_brought_up_to_date(self):
        """``jacobians`` through a work whose columns are another state's, or
        whose state the caller wrote into after ``values``, gives the bytes of
        a call without a work object; a work made by another operator is
        rejected. Calls without a work return fresh arrays, calls through one
        its own buffers."""
        problem = radiance_problem(11)
        operator = problem.operator
        rng = np.random.default_rng(8)
        state_a, bias = (v.copy() for v in blocks(problem, problem.background))
        state_b = state_a + rng.normal(0.0, 3.0, operator.n_state)
        fresh_b = operator.jacobians(state_b, bias)
        work = operator.work()

        operator.values(state_a, bias, work)
        assert all(map(_same_bits, operator.jacobians(state_b, bias, work), fresh_b))
        operator.jacobians(state_a, bias, work)
        operator.values(state_b, bias, work)
        assert all(map(_same_bits, operator.jacobians(state_b, bias, work), fresh_b))

        written = state_a.copy()
        operator.values(written, bias, work)
        written[:] = state_b
        got = operator.jacobians(written, bias, work)
        assert all(map(_same_bits, got, fresh_b))

        assert all(a is b for a, b in zip(got, operator.jacobians(state_a, bias, work)))
        assert not any(a is b for a, b in zip(fresh_b, operator.jacobians(state_b, bias)))
        other = radiance_problem(11).operator
        with pytest.raises(ValidationError, match="another operator"):
            operator.values(state_a, bias, other.work())
        with pytest.raises(ValidationError, match="another operator"):
            operator.jacobians(state_a, bias, other.work())

    @pytest.mark.parametrize("hold_bias_fixed", [False, True])
    def test_analysis_bitwise_equal_recomputing_oracle(self, hold_bias_fixed):
        """Reusing the innovation, the cost's terms, the operator's fixed
        set-up and the columns and Jacobian buffers of its work object changes
        no bit: the oracle recomputes the innovation for the gradient and
        rebuilds the operator's constants and columns on every call."""
        problem = radiance_problem(12)
        steps, expected_steps = [], []
        result = minimize(
            problem, hold_bias_fixed=hold_bias_fixed, on_iteration=lambda *args: steps.append(args)
        )
        expected = reference_minimize(
            dataclasses.replace(problem, operator=ReferenceRadianceOperator(problem.operator)),
            hold_bias_fixed=hold_bias_fixed,
            on_iteration=lambda *args: expected_steps.append(args),
            recompute_innovation=True,
        )
        assert result.iterations == expected.iterations > 0
        assert _same_steps(steps, expected_steps)
        for field in dataclasses.fields(assim.AnalysisResult):
            assert _same_bits(getattr(result, field.name), getattr(expected, field.name))


def _reference_quadratic(variances, v):
    return float(v @ (v / variances))


def _reference_cost(problem, state, bias, residual):
    background_state, background_bias = blocks(problem, problem.background)
    state_variances, bias_variances = blocks(problem, problem.prior_variances)
    dx = state - background_state
    db = bias - background_bias
    return 0.5 * (
        _reference_quadratic(state_variances, dx)
        + _reference_quadratic(bias_variances, db)
        + _reference_quadratic(problem.obs_variances, residual)
    )


def _reference_gradient(problem, state, bias, residual, jac_state, jac_bias):
    """(state block, bias block, R^-1 d), each block its own prior term minus J' R^-1 d."""
    background_state, background_bias = blocks(problem, problem.background)
    state_variances, bias_variances = blocks(problem, problem.prior_variances)
    rinv_d = residual / problem.obs_variances
    gs = (state - background_state) / state_variances - jac_state.T @ rinv_d
    gb = (bias - background_bias) / bias_variances - jac_bias.T @ rinv_d
    return gs, gb, rinv_d


def reference_minimize(
    problem, hold_bias_fixed=False, on_iteration=None, recompute_innovation=False
):
    """The minimizer as first written, kept as the bitwise oracle: the cost and
    gradient in separate state and bias blocks, every inner product as
    ``float(a @ b)``, the Jacobi diagonal from ``(J**2).T @ R^-1``. Its
    constants are read from ``assim``, so a test that changes them changes
    both minimizers. ``recompute_innovation`` evaluates the operator again
    for the gradient at an accepted point instead of reusing the cost's
    innovation there."""
    n_state = problem.n_state
    state_variances, bias_variances = blocks(problem, problem.prior_variances)

    def cost_at(v):
        d = problem.obs_values - problem.operator.values(v[:n_state], v[n_state:])
        return _reference_cost(problem, v[:n_state], v[n_state:], d), d

    obs_scale = np.abs(problem.obs_values)

    def grad_and_jac(v, d):
        if recompute_innovation:
            d = problem.obs_values - problem.operator.values(v[:n_state], v[n_state:])
        jac_state, jac_bias = problem.operator.jacobians(v[:n_state], v[n_state:])
        gs, gb, rinv_d = _reference_gradient(
            problem, v[:n_state], v[n_state:], d, jac_state, jac_bias
        )
        if hold_bias_fixed:
            gb = np.zeros_like(gb)
        cancel_scale = 2.0 * float(np.abs(rinv_d) @ obs_scale)
        return np.concatenate([gs, gb]), jac_state, jac_bias, cancel_scale

    prior_inverse_diag = np.concatenate([1.0 / state_variances, 1.0 / bias_variances])
    obs_inverse_diag = 1.0 / problem.obs_variances

    def jacobi_diagonal(jac_state, jac_bias):
        obs_part = np.concatenate(
            [(jac_state**2).T @ obs_inverse_diag, (jac_bias**2).T @ obs_inverse_diag]
        )
        return prior_inverse_diag + obs_part

    def curvature_along(jac_state, jac_bias, p):
        px, pb = p[:n_state], p[n_state:]
        ap = jac_state @ px + jac_bias @ pb
        return (
            _reference_quadratic(state_variances, px)
            + _reference_quadratic(bias_variances, pb)
            + _reference_quadratic(problem.obs_variances, ap)
        )

    with np.errstate(over="ignore", invalid="ignore"):
        point = np.concatenate(blocks(problem, problem.background))
        j, d = cost_at(point)
        if not np.isfinite(j):
            raise MinimizationError("cost is non-finite at the initial control", point)
        g, jac_state, jac_bias, cancel_scale = grad_and_jac(point, d)
        g_norm = math.sqrt(float(g @ g))
        tol = assim.GRADIENT_TOLERANCE * max(1.0, g_norm)
        scaled_g = g / jacobi_diagonal(jac_state, jac_bias)

        iterations = 0
        direction = -scaled_g
        while g_norm > tol and iterations < assim.MAX_ITERATIONS:
            slope = float(g @ direction)
            if slope >= 0.0:
                direction = -scaled_g
                slope = float(g @ direction)
            curv = curvature_along(jac_state, jac_bias, direction)
            alpha = -slope / curv if curv > 0 else 1.0
            noise_floor = assim._EPS * (32.0 * abs(j) + cancel_scale)

            if abs(alpha * slope) <= noise_floor:
                trial = point + alpha * direction
                j_trial, d_trial = cost_at(trial)
                if not np.isfinite(j_trial):
                    raise MinimizationError(
                        "cost became non-finite during line search", point
                    )
            else:
                accepted = False
                for _ in range(assim._MAX_BACKTRACKS):
                    trial = point + alpha * direction
                    j_trial, d_trial = cost_at(trial)
                    if not np.isfinite(j_trial):
                        raise MinimizationError(
                            "cost became non-finite during line search", point
                        )
                    if j_trial <= j + assim.ARMIJO_C * alpha * slope + noise_floor:
                        accepted = True
                        break
                    alpha *= assim.ARMIJO_SHRINK
                if not accepted:
                    if np.array_equal(direction, -scaled_g):
                        break
                    direction = -scaled_g
                    continue

            g_new, jac_state, jac_bias, cancel_scale = grad_and_jac(trial, d_trial)
            scaled_g_new = g_new / jacobi_diagonal(jac_state, jac_bias)
            beta_pr = float(g_new @ (scaled_g_new - scaled_g)) / float(g @ scaled_g)
            direction = -scaled_g_new + max(0.0, beta_pr) * direction
            point, j, g, scaled_g = trial, j_trial, g_new, scaled_g_new
            g_norm = math.sqrt(float(g @ g))
            iterations += 1
            if on_iteration is not None:
                on_iteration(iterations, j, g_norm)

    return assim.AnalysisResult(
        analysis_state=point[:n_state].copy(),
        analysis_bias=point[n_state:].copy(),
        final_cost=j,
        gradient_norm=g_norm,
        iterations=iterations,
        converged=g_norm <= tol,
    )


@contextlib.contextmanager
def _lines_run(function):
    """Count, per source line number, how often ``function``'s own body runs each line."""
    code, hits = function.__code__, Counter()

    def count(frame, event, arg):
        if event == "line":
            hits[frame.f_lineno] += 1
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code is code else None)
    try:
        yield hits
    finally:
        sys.settrace(previous)


def _source_line(function, text) -> int:
    """The number of the one source line of ``function`` that contains ``text``."""
    lines, first = inspect.getsourcelines(function)
    (index,) = [i for i, line in enumerate(lines) if text in line]
    return first + index


def _same_bits(got, expected) -> bool:
    got, expected = np.asarray(got), np.asarray(expected)
    return np.array_equal(got, expected) and got.tobytes() == expected.tobytes()


def _same_steps(got, expected) -> bool:
    """``on_iteration`` records, (iteration, cost, gradient norm) each, equal bit for bit."""
    return len(got) == len(expected) and all(map(_same_bits, got, expected))


@pytest.mark.parametrize(
    "make, seed",
    [(random_linear_problem, seed) for seed in range(10)]
    + [(radiance_problem, seed) for seed in (3, 12, 40)],
)
def test_flat_cost_and_gradient_bitwise_equal_block_formulas(make, seed):
    """``cost`` and ``gradient`` on the flat control give what the reference's
    state and bias blocks give, bit for bit."""
    problem = make(seed)
    n_state = problem.n_state
    rng = np.random.default_rng(seed + 7)
    points = [problem.background] + [
        problem.background + rng.normal(0.0, 0.5, problem.background.shape) for _ in range(3)
    ]
    for v in points:
        state, bias = v[:n_state], v[n_state:]
        d = problem.obs_values - problem.operator.values(state, bias)
        jac_state, jac_bias = problem.operator.jacobians(state, bias)
        gs, gb, _ = _reference_gradient(problem, state, bias, d, jac_state, jac_bias)
        expected_cost = _reference_cost(problem, state, bias, d)
        assert _same_bits(cost(v, problem), expected_cost)
        assert _same_bits(gradient(v, problem), np.concatenate([gs, gb]))


class TestMinimizeMatchesReference:
    """``minimize`` gives, bit for bit, what the reference minimizer gives on the
    reference operator: every ``AnalysisResult`` field and every iteration record."""

    @staticmethod
    def assert_same_analysis(problem, hold_bias_fixed, reference_problem=None):
        steps, expected_steps = [], []
        result = minimize(
            problem, hold_bias_fixed=hold_bias_fixed, on_iteration=lambda *a: steps.append(a)
        )
        expected = reference_minimize(
            problem if reference_problem is None else reference_problem,
            hold_bias_fixed=hold_bias_fixed,
            on_iteration=lambda *a: expected_steps.append(a),
        )
        for field in dataclasses.fields(assim.AnalysisResult):
            got, want = getattr(result, field.name), getattr(expected, field.name)
            assert _same_bits(got, want), field.name
        assert _same_steps(steps, expected_steps)
        return result

    @pytest.mark.parametrize("hold_bias_fixed", [False, True])
    @pytest.mark.parametrize(
        "predictors",
        [
            (),
            ("scan_position",),
            ("surface_temperature", "scan_position"),
            ("scan_position", "surface_temperature"),
        ],
    )
    def test_radiance_problems(self, predictors, hold_bias_fixed):
        for seed in (3, 12, 40):
            problem = radiance_problem(seed, predictors=predictors)
            reference = dataclasses.replace(
                problem, operator=ReferenceRadianceOperator(problem.operator)
            )
            result = self.assert_same_analysis(problem, hold_bias_fixed, reference)
            assert result.iterations > 0

    @pytest.mark.parametrize("hold_bias_fixed", [False, True])
    def test_linear_problems(self, hold_bias_fixed):
        for seed in range(10):
            self.assert_same_analysis(random_linear_problem(seed), hold_bias_fixed)

    @pytest.mark.parametrize("hold_bias_fixed", [False, True])
    def test_one_observation(self, hold_bias_fixed):
        """With one observation numpy's dot and matmul take different BLAS
        paths; the analysis must not see it, also with exact zeros of both
        signs in the Jacobian and the background."""
        self.assert_same_analysis(scalar_bias_problem(), hold_bias_fixed)
        for seed in range(6):
            problem = radiance_problem(seed, n_obs=1)
            reference = dataclasses.replace(
                problem, operator=ReferenceRadianceOperator(problem.operator)
            )
            self.assert_same_analysis(problem, hold_bias_fixed, reference)
            problem = random_linear_problem(seed, n_obs=1)
            columns = np.arange(problem.operator.n_state)
            # Two of three columns become exact zeros, half of them -0.0.
            mask = (columns % 3 == 0) * np.where(columns % 2, -1.0, 1.0)
            sparse = dataclasses.replace(
                problem.operator, state_matrix=problem.operator.state_matrix * mask
            )
            background = problem.background.copy()
            background[: problem.n_state][1::4] = -0.0
            self.assert_same_analysis(
                dataclasses.replace(problem, operator=sparse, background=background),
                hold_bias_fixed,
            )

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(assim, "MAX_ITERATIONS", 2)
        result = self.assert_same_analysis(radiance_problem(21), False)
        assert not result.converged

    def test_restarts_and_backtracks(self, monkeypatch):
        """The shipped config with the bias held fixed, 200 spin-up steps and a
        0 dBW aggregate level (a 28.2 K brightness error) gives analyses whose
        conjugate direction loses descent 3 times and whose line search
        shrinks a trial step 4 times, per member; each still converges and
        matches the reference bit for bit."""
        problems = []

        def recorded(problem, **kwargs):
            problems.append(problem)
            return minimize(problem, **kwargs)

        monkeypatch.setattr(experiment, "minimize", recorded)
        config = experiment.config_from_dict(
            {
                "hold_bias_fixed": True,
                "spinup_steps": 200,
                "leakage_levels": [0.0],
                "ensemble_size": 3,
                "forecast_length": 0.01,
            }
        )
        experiment.run_scenario(config)
        assert len(problems) == 6
        restart = _source_line(minimize, "# restart: direction lost descent")
        shrink = _source_line(minimize, "alpha *= ARMIJO_SHRINK")
        for problem in problems[3:]:
            reference = dataclasses.replace(
                problem, operator=ReferenceRadianceOperator(problem.operator)
            )
            with _lines_run(minimize) as hits:
                result = self.assert_same_analysis(problem, True, reference)
            assert (hits[restart], hits[shrink]) == (3, 4)
            assert result.converged

    @pytest.mark.parametrize(
        "state, message",
        [
            (1000.0, "cost is non-finite at the initial control"),
            (0.0, "cost became non-finite during line search"),
        ],
    )
    def test_minimization_errors(self, state, message):
        problem = exploding_problem(state)
        errors = []
        for minimizer in (minimize, reference_minimize):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(MinimizationError) as excinfo:
                    minimizer(problem)
            errors.append(excinfo.value)
        got, expected = errors
        assert str(got) == str(expected) == message
        assert got.last_control.shape == problem.background.shape
        assert _same_bits(got.last_control, expected.last_control)
