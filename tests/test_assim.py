"""Tests for the variational analysis: cost, gradient, minimizer."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from wxleak import assim
from wxleak.assim import (
    AssimilationProblem,
    Control,
    CovarianceSpec,
    cost,
    gradient,
    innovation,
    minimize,
)
from wxleak.errors import MinimizationError, ValidationError
from wxleak.forward import BiasModel
from wxleak.model import ModelParams, ModelState, nature_run
from wxleak.osse import (
    ColumnMapping,
    RadianceOperator,
    build_problem,
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

    def values(self, state, bias):
        return self.state_matrix @ state + self.bias_matrix @ bias + self.offset

    def jacobians(self, state, bias):
        return self.state_matrix, self.bias_matrix


def scalar_bias_problem(obs_variance=1.0):
    """Bias-only scalar case: linear operator x_fixed + beta, innovation 1."""
    x_fixed = 264.715
    operator = LinearOperator(np.zeros((1, 1)), np.ones((1, 1)), np.array([x_fixed]))
    return AssimilationProblem(
        background_state=np.array([0.0]),
        background_bias=np.array([0.0]),
        state_covariance=CovarianceSpec([1.0]),
        bias_covariance=CovarianceSpec([1.0]),
        obs_covariance=CovarianceSpec([obs_variance]),
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
        background_state=rng.normal(size=n_state),
        background_bias=rng.normal(size=n_bias) * 0.1,
        state_covariance=CovarianceSpec(state_var),
        bias_covariance=CovarianceSpec(bias_var),
        obs_covariance=CovarianceSpec(obs_var),
        obs_values=rng.normal(size=n_obs) + offset,
        operator=operator,
    )
    return problem


def direct_solve(problem):
    """Dense normal-equations oracle for linear operators."""
    op = problem.operator
    a = np.hstack([op.state_matrix, op.bias_matrix])
    c_inv = np.diag(
        np.concatenate(
            [1.0 / problem.state_covariance.values, 1.0 / problem.bias_covariance.values]
        )
    )
    r_inv = np.diag(1.0 / problem.obs_covariance.values)
    background = np.concatenate([problem.background_state, problem.background_bias])
    rhs = c_inv @ background + a.T @ r_inv @ (problem.obs_values - op.offset)
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
    obs_values = synthesize_observations(
        truth, mapping, bias, seed + 1, float(rng.uniform(0, 0.5)), locations, 0.3
    )
    background = ModelState(
        truth.temperature_field + rng.normal(0, 0.5, grid_size),
        np.maximum(0.0, truth.moisture_field + rng.normal(0, 0.5, grid_size)),
    )
    return build_problem(background, bias, obs_values, locations, mapping, 1.0, 0.5, 0.3)


def finite_difference_gradient(problem, control, h_scale=1e-5):
    flat = np.concatenate([control.state, control.bias])
    n_state = control.state.shape[0]

    def cost_flat(v):
        return cost(Control(v[:n_state], v[n_state:]), problem)

    out = np.zeros_like(flat)
    for i in range(flat.shape[0]):
        h = h_scale * max(1.0, abs(flat[i]))
        up = flat.copy()
        down = flat.copy()
        up[i] += h
        down[i] -= h
        out[i] = (cost_flat(up) - cost_flat(down)) / (2 * h)
    return out


class TestCovarianceSpec:
    def test_diagonal_solve(self):
        spec = CovarianceSpec([2.0, 4.0])
        assert np.allclose(spec.solve(np.array([2.0, 4.0])), [1.0, 1.0])
        assert math.isclose(spec.quadratic(np.array([2.0, 4.0])), 2.0 + 4.0)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValidationError):
            CovarianceSpec([1.0, 0.0])

    def test_inverse_diagonal_is_reciprocal_variance(self):
        spec = CovarianceSpec([2.0, 4.0, 0.5])
        assert np.array_equal(spec.inverse_diagonal(), [0.5, 0.25, 2.0])

    def test_non_finite_or_matrix_variances_rejected(self):
        for bad in ([1.0, np.inf], [np.nan], [[1.0, 0.0], [0.0, 1.0]]):
            with pytest.raises(ValidationError):
                CovarianceSpec(bad)


class TestCost:
    def test_zero_at_perfect_background(self):
        """All three terms vanish when background reproduces the observations."""
        problem = radiance_problem(1)
        control = problem.background_control()
        perfect_y = problem.operator.values(control.state, control.bias)
        perfect = AssimilationProblem(
            background_state=problem.background_state,
            background_bias=problem.background_bias,
            state_covariance=problem.state_covariance,
            bias_covariance=problem.bias_covariance,
            obs_covariance=problem.obs_covariance,
            obs_values=perfect_y,
            operator=problem.operator,
        )
        assert cost(control, perfect) == 0.0

    def test_scalar_case_at_background(self):
        problem = scalar_bias_problem()
        assert math.isclose(cost(problem.background_control(), problem), 0.5, rel_tol=1e-12)

    def test_scalar_case_at_optimum(self):
        problem = scalar_bias_problem()
        control = Control(np.array([0.0]), np.array([0.5]))
        assert math.isclose(cost(control, problem), 0.25, rel_tol=1e-12)

    def test_nonnegative(self):
        for seed in range(5):
            problem = random_linear_problem(seed)
            rng = np.random.default_rng(seed + 100)
            control = Control(
                problem.background_state + rng.normal(size=problem.background_state.shape),
                problem.background_bias + rng.normal(size=problem.background_bias.shape),
            )
            assert cost(control, problem) >= 0.0

    def test_dimension_mismatch_rejected(self):
        problem = scalar_bias_problem()
        with pytest.raises(ValidationError):
            cost(Control(np.zeros(2), np.zeros(1)), problem)

    def test_covariance_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            AssimilationProblem(
                background_state=np.zeros(2),
                background_bias=np.zeros(1),
                state_covariance=CovarianceSpec([1.0]),
                bias_covariance=CovarianceSpec([1.0]),
                obs_covariance=CovarianceSpec([1.0]),
                obs_values=np.array([260.0]),
                operator=LinearOperator(np.zeros((1, 2)), np.ones((1, 1)), np.zeros(1)),
            )


class TestGradient:
    def test_zero_at_stationary_point(self):
        problem = radiance_problem(2)
        control = problem.background_control()
        perfect_y = problem.operator.values(control.state, control.bias)
        perfect = AssimilationProblem(
            background_state=problem.background_state,
            background_bias=problem.background_bias,
            state_covariance=problem.state_covariance,
            bias_covariance=problem.bias_covariance,
            obs_covariance=problem.obs_covariance,
            obs_values=perfect_y,
            operator=problem.operator,
        )
        gs, gb = gradient(control, perfect)
        assert np.all(gs == 0.0) and np.all(gb == 0.0)

    def test_scalar_hand_derivative(self):
        problem = scalar_bias_problem()
        _, gb = gradient(problem.background_control(), problem)
        assert math.isclose(gb[0], -1.0, rel_tol=1e-12)

    def test_matches_finite_differences_linear(self):
        for seed in range(10):
            problem = random_linear_problem(seed)
            rng = np.random.default_rng(seed + 50)
            control = Control(
                problem.background_state + 0.3 * rng.normal(size=problem.background_state.shape),
                problem.background_bias + 0.3 * rng.normal(size=problem.background_bias.shape),
            )
            gs, gb = gradient(control, problem)
            analytic = np.concatenate([gs, gb])
            fd = finite_difference_gradient(problem, control)
            assert np.linalg.norm(analytic - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_matches_finite_differences_radiance(self):
        """Analytic gradient of the nonlinear operator, predictors included."""
        for seed in range(10):
            problem = radiance_problem(seed)
            control = problem.background_control()
            gs, gb = gradient(control, problem)
            analytic = np.concatenate([gs, gb])
            fd = finite_difference_gradient(problem, control)
            assert np.linalg.norm(analytic - fd) <= 1e-6 * np.linalg.norm(fd)


class TestInnovation:
    def test_perfect_fit_is_zero(self):
        problem = radiance_problem(3)
        control = problem.background_control()
        perfect_y = problem.operator.values(control.state, control.bias)
        perfect = AssimilationProblem(
            background_state=problem.background_state,
            background_bias=problem.background_bias,
            state_covariance=problem.state_covariance,
            bias_covariance=problem.bias_covariance,
            obs_covariance=problem.obs_covariance,
            obs_values=perfect_y,
            operator=problem.operator,
        )
        assert np.all(innovation(perfect, control) == 0.0)

    def test_single_observation_hand_value(self):
        operator = LinearOperator(np.zeros((1, 1)), np.zeros((1, 1)), np.array([264.715]))
        problem = AssimilationProblem(
            background_state=np.zeros(1),
            background_bias=np.zeros(1),
            state_covariance=CovarianceSpec([1.0]),
            bias_covariance=CovarianceSpec([1.0]),
            obs_covariance=CovarianceSpec([1.0]),
            obs_values=np.array([260.0]),
            operator=operator,
        )
        d = innovation(problem, problem.background_control())
        assert math.isclose(d[0], -4.715, rel_tol=1e-12)

    def test_uniform_shift_appears_per_observation(self):
        """A constant brightness increase shows up one-for-one in the residual."""
        problem = radiance_problem(4)
        control = problem.background_control()
        base = innovation(problem, control)
        shifted = AssimilationProblem(
            background_state=problem.background_state,
            background_bias=problem.background_bias,
            state_covariance=problem.state_covariance,
            bias_covariance=problem.bias_covariance,
            obs_covariance=problem.obs_covariance,
            obs_values=problem.obs_values + 0.268,
            operator=problem.operator,
        )
        diff = innovation(shifted, control) - base
        assert np.all(np.abs(diff - 0.268) < 1e-12)


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
            background_state=np.array([1.0]),
            background_bias=np.array([0.25]),
            state_covariance=CovarianceSpec([1.0]),
            bias_covariance=CovarianceSpec([1.0]),
            obs_covariance=CovarianceSpec([1.0]),
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
            assert result.final_cost <= cost(problem.background_control(), problem)
            assert result.final_cost >= 0.0

    def test_converged_implies_tolerance(self):
        problem = random_linear_problem(77)
        result = minimize(problem)
        g0 = np.concatenate(gradient(problem.background_control(), problem))
        tolerance = 1e-8 * max(1.0, float(np.linalg.norm(g0)))
        assert result.converged
        assert result.gradient_norm <= tolerance

    def test_obs_variance_to_infinity_recovers_background_bias(self):
        result = minimize(scalar_bias_problem(obs_variance=1e12))
        assert abs(result.analysis_bias[0] - 0.0) <= 1e-6

    def test_obs_variance_to_zero_drives_innovation_to_zero(self):
        problem = scalar_bias_problem(obs_variance=1e-12)
        result = minimize(problem)
        d = innovation(problem, Control(result.analysis_state, result.analysis_bias))
        assert abs(d[0]) <= 1e-6

    def test_pinned_state_recovers_bias_only_analysis(self):
        """Near-zero state variances reduce the problem to its bias-only form."""
        x_fixed = 264.715
        operator = LinearOperator(np.zeros((1, 1)), np.ones((1, 1)), np.array([x_fixed]))
        problem = AssimilationProblem(
            background_state=np.array([3.0]),
            background_bias=np.array([0.0]),
            state_covariance=CovarianceSpec([1e-12]),
            bias_covariance=CovarianceSpec([1.0]),
            obs_covariance=CovarianceSpec([1.0]),
            obs_values=np.array([x_fixed + 1.0]),
            operator=operator,
        )
        result = minimize(problem)
        assert abs(result.analysis_state[0] - 3.0) <= 1e-9
        assert abs(result.analysis_bias[0] - 0.5) <= 1e-6

    def test_hold_bias_fixed(self):
        problem = radiance_problem(9)
        result = minimize(problem, hold_bias_fixed=True)
        assert np.array_equal(result.analysis_bias, problem.background_bias)
        assert result.final_cost <= cost(problem.background_control(), problem)

    def test_radiance_problems_converge(self):
        for seed in range(5):
            result = minimize(radiance_problem(seed + 20))
            assert result.converged, seed

    def test_permuting_observations_leaves_analysis_invariant(self):
        problem = radiance_problem(6)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(problem.obs_values))
        permuted = AssimilationProblem(
            background_state=problem.background_state,
            background_bias=problem.background_bias,
            state_covariance=problem.state_covariance,
            bias_covariance=CovarianceSpec(
                problem.bias_covariance.values
            ),
            obs_covariance=CovarianceSpec(
                problem.obs_covariance.values[perm]
            ),
            obs_values=problem.obs_values[perm],
            operator=_permuted_operator(problem.operator, perm),
        )
        control = problem.background_control()
        assert abs(cost(control, problem) - cost(control, permuted)) < 1e-10
        gs_a, gb_a = gradient(control, problem)
        gs_b, gb_b = gradient(control, permuted)
        assert np.allclose(gs_a, gs_b, atol=1e-10)
        assert np.allclose(gb_a, gb_b, atol=1e-10)
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
        assert np.all(np.isfinite(excinfo.value.last_control.state))


class ExplodingOperator:
    """values = exp(state) + bias: overflows once the state passes about 709."""

    n_state = 1
    n_bias = 1

    def values(self, state, bias):
        with np.errstate(over="ignore"):
            return np.array([float(np.exp(state[0])) + bias[0]])

    def jacobians(self, state, bias):
        with np.errstate(over="ignore"):
            return np.array([[float(np.exp(state[0]))]]), np.array([[1.0]])


def exploding_problem(background_state):
    """A problem on ``ExplodingOperator`` whose tight observation pulls the
    state up until the cost overflows (from 0.0 the line search reaches it; from
    1000.0 the background cost is already non-finite)."""
    return AssimilationProblem(
        background_state=np.array([background_state]),
        background_bias=np.array([0.0]),
        state_covariance=CovarianceSpec([1.0]),
        bias_covariance=CovarianceSpec([1.0]),
        obs_covariance=CovarianceSpec([1e-8]),
        obs_values=np.array([1e3]),
        operator=ExplodingOperator(),
    )


def _permuted_operator(operator, perm):
    class Permuted:
        n_state = operator.n_state
        n_bias = operator.n_bias

        def values(self, state, bias):
            return operator.values(state, bias)[perm]

        def jacobians(self, state, bias):
            jac_state, jac_bias = operator.jacobians(state, bias)
            return jac_state[perm], jac_bias[perm]

    return Permuted()


class ReferenceRadianceOperator:
    """The radiance operator with no set-up at construction: predictors are
    resolved, index arrays built and the predictor matrix stacked on every
    call, in the same arithmetic order as ``RadianceOperator``."""

    def __init__(self, operator):
        self.op = operator
        self.n_state = operator.n_state
        self.n_bias = operator.n_bias

    def _columns(self, state):
        locs = np.array(self.op.obs_locations, dtype=int)
        t_surf = self.op.mapping.surface_offset_k + state[locs]
        q_raw = state[self.op.grid_size + locs]
        return t_surf, np.maximum(0.0, q_raw), q_raw > 0.0

    def _predictor_matrix(self, t_surf, q):
        scan = np.array(self.op.obs_locations, dtype=float)
        columns = [p.vector_value(t_surf, q, scan) for p in self.op.bias_template.resolved()]
        if not columns:
            return np.zeros((len(t_surf), 0))
        return np.column_stack(columns)

    def values(self, state, bias):
        t_surf, q, _ = self._columns(state)
        mapping = self.op.mapping
        w = np.exp(-mapping.opacity_coefficient * q)
        h = t_surf * w + mapping.atmosphere_temperature_k * (1.0 - w)
        return h + bias[0] + self._predictor_matrix(t_surf, q) @ bias[1:]

    def jacobians(self, state, bias):
        t_surf, q, active = self._columns(state)
        kappa = self.op.mapping.opacity_coefficient
        w = np.exp(-kappa * q)
        d_dtemp = w.copy()
        d_dmoist = kappa * (self.op.mapping.atmosphere_temperature_k - t_surf) * w
        for coeff, pdef in zip(bias[1:], self.op.bias_template.resolved()):
            d_dtemp += coeff * pdef.d_surface_temperature
            d_dmoist += coeff * pdef.d_water_vapor
        d_dmoist = np.where(active, d_dmoist, 0.0)
        n_obs = len(t_surf)
        rows = np.arange(n_obs)
        locs = np.array(self.op.obs_locations, dtype=int)
        jac_state = np.zeros((n_obs, self.n_state))
        jac_state[rows, locs] = d_dtemp
        jac_state[rows, self.op.grid_size + locs] = d_dmoist
        jac_bias = np.empty((n_obs, self.n_bias))
        jac_bias[:, 0] = 1.0
        jac_bias[:, 1:] = self._predictor_matrix(t_surf, q)
        return jac_state, jac_bias


def _recomputing_cost(monkeypatch):
    """Make ``assim.cost`` ignore a supplied innovation and evaluate its own."""
    original = assim.cost
    monkeypatch.setattr(
        assim, "cost", lambda control, problem, residual=None: original(control, problem)
    )


class TestOperatorEvaluations:
    """The analysis evaluates the operator once per control point."""

    @pytest.mark.parametrize("hold_bias_fixed", [False, True])
    def test_call_counts(self, monkeypatch, hold_bias_fixed):
        counts = Counter()

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(RadianceOperator, "values")
        counted(RadianceOperator, "jacobians")
        counted(assim, "cost")
        for seed in range(3):
            counts.clear()
            problem = radiance_problem(seed + 40)
            assert problem.operator.n_bias == 3
            result = minimize(problem, hold_bias_fixed=hold_bias_fixed)
            assert result.iterations > 0
            assert counts["values"] == counts["cost"]
            assert counts["jacobians"] == result.iterations + 1

    @pytest.mark.parametrize("hold_bias_fixed", [False, True])
    def test_one_control_check_per_cost_evaluation(self, monkeypatch, hold_bias_fixed):
        """Each trial control is validated once, inside ``cost``."""
        counts = Counter()
        for name in ("_check_control", "cost"):
            original = getattr(assim, name)

            def wrapper(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(assim, name, wrapper)
        problem = radiance_problem(41)
        result = minimize(problem, hold_bias_fixed=hold_bias_fixed)
        assert result.iterations > 0
        assert counts["_check_control"] == counts["cost"]

    @pytest.mark.parametrize(
        "predictors", [(), ("scan_position",), ("surface_temperature", "scan_position")]
    )
    def test_operator_bitwise_equal_reference(self, predictors):
        problem = radiance_problem(11, predictors=predictors)
        operator = problem.operator
        reference = ReferenceRadianceOperator(operator)
        rng = np.random.default_rng(5)
        for _ in range(5):
            state = problem.background_state + rng.normal(0.0, 3.0, operator.n_state)
            bias = problem.background_bias + rng.normal(0.0, 0.1, operator.n_bias)
            assert np.array_equal(operator.values(state, bias), reference.values(state, bias))
            for got, expected in zip(
                operator.jacobians(state, bias), reference.jacobians(state, bias)
            ):
                assert np.array_equal(got, expected)

    @pytest.mark.parametrize("hold_bias_fixed", [False, True])
    def test_analysis_bitwise_equal_recomputing_oracle(self, monkeypatch, hold_bias_fixed):
        """Reusing the innovation and the operator's fixed set-up changes no bit:
        the oracle recomputes the innovation for the gradient and rebuilds the
        operator's constants on every call."""
        problem = radiance_problem(12)

        def analyse(p):
            steps = []
            result = minimize(
                p,
                hold_bias_fixed=hold_bias_fixed,
                on_iteration=lambda *args: steps.append(args),
            )
            return result, steps

        result, steps = analyse(problem)
        _recomputing_cost(monkeypatch)
        expected, expected_steps = analyse(
            dataclasses.replace(problem, operator=ReferenceRadianceOperator(problem.operator))
        )
        assert result.iterations == expected.iterations > 0
        assert steps == expected_steps
        assert np.array_equal(result.analysis_state, expected.analysis_state)
        assert np.array_equal(result.analysis_bias, expected.analysis_bias)
        assert result.final_cost == expected.final_cost
        assert result.gradient_norm == expected.gradient_norm
        assert result.converged == expected.converged


def _reference_quadratic(covariance, v):
    return float(v @ covariance.solve(v))


def _reference_cost(problem, state, bias, residual):
    dx = state - problem.background_state
    db = bias - problem.background_bias
    return 0.5 * (
        _reference_quadratic(problem.state_covariance, dx)
        + _reference_quadratic(problem.bias_covariance, db)
        + _reference_quadratic(problem.obs_covariance, residual)
    )


def reference_minimize(problem, hold_bias_fixed=False, on_iteration=None):
    """The minimizer as first written, kept as the bitwise oracle: the cost and
    gradient in separate state and bias blocks, every inner product as
    ``float(a @ b)``, the Jacobi diagonal from ``(J**2).T @ R^-1``. Its
    constants are read from ``assim``, so a test that changes them changes
    both minimizers."""
    n_state = problem.background_state.shape[0]

    def unflatten(v):
        return Control(v[:n_state], v[n_state:])

    def cost_at(v):
        c = unflatten(v)
        d = problem.obs_values - problem.operator.values(c.state, c.bias)
        return _reference_cost(problem, c.state, c.bias, d), d

    obs_scale = np.abs(problem.obs_values)

    def grad_and_jac(v, d):
        c = unflatten(v)
        jac_state, jac_bias = problem.operator.jacobians(c.state, c.bias)
        dx = c.state - problem.background_state
        db = c.bias - problem.background_bias
        rinv_d = problem.obs_covariance.solve(d)
        gs = problem.state_covariance.solve(dx) - jac_state.T @ rinv_d
        gb = problem.bias_covariance.solve(db) - jac_bias.T @ rinv_d
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

    def jacobi_diagonal(jac_state, jac_bias):
        obs_part = np.concatenate(
            [(jac_state**2).T @ obs_inverse_diag, (jac_bias**2).T @ obs_inverse_diag]
        )
        return prior_inverse_diag + obs_part

    def curvature_along(jac_state, jac_bias, p):
        px, pb = p[:n_state], p[n_state:]
        ap = jac_state @ px + jac_bias @ pb
        return (
            _reference_quadratic(problem.state_covariance, px)
            + _reference_quadratic(problem.bias_covariance, pb)
            + _reference_quadratic(problem.obs_covariance, ap)
        )

    with np.errstate(over="ignore", invalid="ignore"):
        point = np.concatenate([problem.background_state, problem.background_bias])
        j, d = cost_at(point)
        if not np.isfinite(j):
            raise MinimizationError(
                "cost is non-finite at the initial control", problem.background_control()
            )
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
                        "cost became non-finite during line search", unflatten(point)
                    )
            else:
                accepted = False
                for _ in range(assim._MAX_BACKTRACKS):
                    trial = point + alpha * direction
                    j_trial, d_trial = cost_at(trial)
                    if not np.isfinite(j_trial):
                        raise MinimizationError(
                            "cost became non-finite during line search", unflatten(point)
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

    result = unflatten(point)
    return assim.AnalysisResult(
        analysis_state=result.state.copy(),
        analysis_bias=result.bias.copy(),
        final_cost=j,
        gradient_norm=g_norm,
        iterations=iterations,
        converged=g_norm <= tol,
    )


def _same_bits(got, expected) -> bool:
    got, expected = np.asarray(got), np.asarray(expected)
    return np.array_equal(got, expected) and got.tobytes() == expected.tobytes()


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
        assert steps == expected_steps
        return result

    @pytest.mark.parametrize("hold_bias_fixed", [False, True])
    @pytest.mark.parametrize(
        "predictors", [(), ("scan_position",), ("surface_temperature", "scan_position")]
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
            background = problem.background_state.copy()
            background[1::4] = -0.0
            self.assert_same_analysis(
                dataclasses.replace(problem, operator=sparse, background_state=background),
                hold_bias_fixed,
            )

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(assim, "MAX_ITERATIONS", 2)
        result = self.assert_same_analysis(radiance_problem(21), False)
        assert not result.converged

    @pytest.mark.parametrize(
        "background_state, message",
        [
            (1000.0, "cost is non-finite at the initial control"),
            (0.0, "cost became non-finite during line search"),
        ],
    )
    def test_minimization_errors(self, background_state, message):
        problem = exploding_problem(background_state)
        errors = []
        for minimizer in (minimize, reference_minimize):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(MinimizationError) as excinfo:
                    minimizer(problem)
            errors.append(excinfo.value)
        got, expected = errors
        assert str(got) == str(expected) == message
        assert _same_bits(got.last_control.state, expected.last_control.state)
        assert _same_bits(got.last_control.bias, expected.last_control.bias)
