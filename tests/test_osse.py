"""Tests for the radiance operator, its bias correction, the
synthetic-observation harness and the analysis operator."""

import math

import numpy as np
import pytest

from wxleak.assim import build_problem
from wxleak.errors import ValidationError
from wxleak.model import ModelParams, ModelState, Workspace, nature_run
from wxleak.osse import (
    PREDICTORS,
    BiasModel,
    ColumnMapping,
    RadianceOperator,
    bias_corrected_forward,
    default_obs_locations,
    synthesize_observations,
)
from wxleak.rng import SeededRng


STDDEV = 0.3  # observation error stddev, K
KAPPA = ColumnMapping().opacity_coefficient


def truth_state(seed=1, grid_size=12):
    return nature_run(Workspace(grid_size, ModelParams()), seed, 150).final


def brightness(q, t_surf, t_atm, kappa=KAPPA, bias=BiasModel(), scan=0):
    """Bias-corrected brightness temperature of a column whose surface
    temperature is ``t_surf``: a cell holding 0 under an offset of ``t_surf``."""
    return bias_corrected_forward(ColumnMapping(kappa, t_surf, t_atm), bias, 0.0, q, scan)


def synthesize(truth, bias, seed, locations, stddev, mapping=ColumnMapping()):
    """Observations of ``truth`` synthesized with a fresh operator."""
    operator = RadianceOperator(mapping, bias, locations, truth.grid_size)
    return synthesize_observations(truth, operator, seed, stddev)


def scalar_at(truth, loc, mapping, bias):
    """The scalar operator at one cell of a model state."""
    return bias_corrected_forward(
        mapping, bias, float(truth.temperature_field[loc]), float(truth.moisture_field[loc]), loc
    )


class TestForward:
    def test_transparent_limit(self):
        """Dry column: the radiometer sees the surface."""
        assert brightness(0.0, 290.0, 250.0) == 290.0

    def test_opaque_limit(self):
        assert abs(brightness(1e6, 290.0, 250.0) - 250.0) < 1e-9

    def test_hand_arithmetic(self):
        """kappa 0.05, q 20: one optical depth exactly."""
        assert math.isclose(brightness(20.0, 290.0, 250.0), 264.7151776468577, rel_tol=1e-12)

    def test_monotone_decreasing_when_surface_warmer(self):
        values = [brightness(q, 290.0, 250.0) for q in np.linspace(0, 80, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_monotone_increasing_when_atmosphere_warmer(self):
        values = [brightness(q, 250.0, 290.0) for q in np.linspace(0, 80, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_bounded_by_temperatures(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            t_s = float(rng.uniform(240, 310))
            t_a = float(rng.uniform(220, 300))
            q = float(rng.uniform(0, 200))
            t_b = brightness(q, t_s, t_a)
            assert min(t_s, t_a) - 1e-12 <= t_b <= max(t_s, t_a) + 1e-12

    def test_invalid_opacity_rejected(self):
        with pytest.raises(ValidationError):
            ColumnMapping(opacity_coefficient=0.0)


class TestPredictors:
    def test_names(self):
        assert PREDICTORS == ("surface_temperature", "scan_position")
        assert BiasModel().predictors == ()

    def test_columns_are_surface_temperature_and_scan_position(self):
        """The bias Jacobian's predictor columns hold each column's surface
        temperature and each observation's location, in the template's order."""
        truth = truth_state()
        locations = (3, 7)
        t_surf = ColumnMapping().surface_offset_k + truth.temperature_field[list(locations)]
        for predictors, columns in (
            (PREDICTORS, [t_surf, locations]),
            (PREDICTORS[::-1], [locations, t_surf]),
        ):
            bias = BiasModel(0.0, (0.5, -0.5), predictors)
            operator = RadianceOperator(ColumnMapping(), bias, locations, truth.grid_size)
            _, jac_bias = operator.jacobians(truth.vector, operator.bias_background)
            assert np.array_equal(jac_bias, np.column_stack([np.ones(2), *columns]))

    def test_unknown_predictor_fails_at_construction(self):
        with pytest.raises(ValidationError) as excinfo:
            BiasModel(0.0, (1.0,), ("latitude",))
        assert "latitude" in str(excinfo.value)

    @pytest.mark.parametrize("name", PREDICTORS)
    def test_predictor_listed_twice_fails_at_construction(self, name):
        """Two identical bias-Jacobian columns, told apart by the prior alone."""
        with pytest.raises(ValidationError, match="twice") as excinfo:
            BiasModel(0.0, (0.0, 0.0), (name, name))
        assert excinfo.value.field == "predictors"

    @pytest.mark.parametrize(
        "constant, coefficient",
        [(math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf), (0.0, math.nan)],
    )
    def test_non_finite_coefficient_fails_at_construction(self, constant, coefficient):
        """Only direct construction reaches this check: a config's non-finite
        number is rejected when it is read."""
        with pytest.raises(ValidationError, match="must be finite"):
            BiasModel(constant, (coefficient,), ("scan_position",))

    def test_coefficient_length_mismatch(self):
        with pytest.raises(ValidationError):
            BiasModel(0.0, (1.0, 2.0), ("scan_position",))


class TestBiasCorrectedForward:
    def test_collapses_to_forward_with_zero_coefficients(self):
        bias = BiasModel(0.0, (0.0, 0.0), ("surface_temperature", "scan_position"))
        assert brightness(20.0, 290.0, 250.0, bias=bias) == brightness(20.0, 290.0, 250.0)

    def test_constant_offset(self):
        got = brightness(20.0, 290.0, 250.0, bias=BiasModel(1.5))
        assert math.isclose(got, 264.7151776468577 + 1.5, rel_tol=1e-12)

    def test_surface_predictor_contribution(self):
        bias = BiasModel(0.0, (0.01,), ("surface_temperature",))
        got = brightness(20.0, 290.0, 250.0, bias=bias)
        assert math.isclose(got, brightness(20.0, 290.0, 250.0) + 2.9, rel_tol=1e-12)

    def test_correction_affine_in_coefficients(self):
        """Doubling every coefficient doubles the correction term exactly."""
        scan = 5
        base = brightness(15.0, 285.0, 255.0)
        one = BiasModel(0.7, (0.02, -0.1), ("surface_temperature", "scan_position"))
        two = BiasModel(1.4, (0.04, -0.2), ("surface_temperature", "scan_position"))
        c1 = brightness(15.0, 285.0, 255.0, bias=one, scan=scan) - base
        c2 = brightness(15.0, 285.0, 255.0, bias=two, scan=scan) - base
        assert abs(c2 - 2.0 * c1) <= 1e-12 * abs(c2)


class TestColumnMapping:
    def test_surface_offset_and_fixed_atmosphere(self):
        """A cell holding 10 under the default 273 K offset is a 283 K surface
        under the fixed 250 K atmosphere."""
        got = bias_corrected_forward(ColumnMapping(), BiasModel(), 10.0, 20.0, 2)
        w = math.exp(-1.0)
        assert math.isclose(got, 283.0 * w + 250.0 * (1.0 - w), rel_tol=1e-12)

    def test_negative_moisture_floored(self):
        mapping = ColumnMapping()
        floored = bias_corrected_forward(mapping, BiasModel(), 5.0, -3.0, 0)
        assert floored == bias_corrected_forward(mapping, BiasModel(), 5.0, 0.0, 0)

    @pytest.mark.parametrize("temperature", [-1.0, -1.5, -300.0])
    def test_surface_at_or_below_zero_kelvin_rejected(self, temperature):
        """A positive offset that the cell's temperature undercuts, which the
        config's load-time check cannot see, is rejected per column."""
        mapping = ColumnMapping(surface_offset_k=1.0)
        with pytest.raises(ValidationError, match="column temperatures must be positive"):
            bias_corrected_forward(mapping, BiasModel(), temperature, 20.0, 0)


class TestDefaultObsLocations:
    def test_every_other_point(self):
        assert default_obs_locations(40, 20) == tuple(range(0, 40, 2))

    def test_count_bounds(self):
        with pytest.raises(ValidationError):
            default_obs_locations(8, 20)
        with pytest.raises(ValidationError):
            default_obs_locations(8, 0)


class TestSynthesizeObservations:
    def test_identical_twin(self):
        """Synthesis is the analysis operator at the truth and the true bias
        plus the seeded noise, drawn in location order, bit for bit."""
        truth = truth_state()
        bias = BiasModel(0.1, (0.01, -0.02), PREDICTORS)
        operator = RadianceOperator(ColumnMapping(), bias, tuple(range(12)), truth.grid_size)
        obs = synthesize_observations(truth, operator, 9, STDDEV)
        noise = np.array(SeededRng(9).normals(12, 0.0, STDDEV))
        want = operator.values(truth.vector, operator.bias_background) + noise
        assert np.array_equal(obs.view(np.uint64), want.view(np.uint64))

    def test_noiseless_identity(self):
        """Vanishing noise reproduces the scalar reference operator's values."""
        truth = truth_state()
        mapping = ColumnMapping()
        bias = BiasModel(0.1, (0.01, -0.02), PREDICTORS)
        obs = synthesize(truth, bias, 5, (0, 2, 4), 1e-12, mapping)
        for value, loc in zip(obs, (0, 2, 4)):
            assert abs(value - scalar_at(truth, loc, mapping, bias)) < 1e-9

    def test_same_seed_identical(self):
        truth = truth_state()
        a = synthesize(truth, BiasModel(), 9, (0, 2, 4), STDDEV)
        b = synthesize(truth, BiasModel(), 9, (0, 2, 4), STDDEV)
        assert np.array_equal(a, b)

    def test_read_only_array_one_value_per_location(self):
        obs = synthesize(truth_state(), BiasModel(), 9, (0, 1, 5), STDDEV)
        assert obs.shape == (3,) and obs.dtype == float
        with pytest.raises(ValueError):
            obs[0] = 1.0

    def test_scan_position_is_location(self):
        """A unit scan-position coefficient adds each observation's location."""
        truth = truth_state()
        locations = (3, 7)
        plain = synthesize(truth, BiasModel(), 9, locations, 1e-12)
        scanned = synthesize(truth, BiasModel(0.0, (1.0,), ("scan_position",)), 9, locations, 1e-12)
        assert np.allclose(scanned - plain, locations, rtol=0.0, atol=1e-9)

    def test_true_bias_enters_values(self):
        truth = truth_state()
        plain = synthesize(truth, BiasModel(), 9, (0,), 1e-12)
        biased = synthesize(truth, BiasModel(1.5), 9, (0,), 1e-12)
        assert math.isclose(biased[0] - plain[0], 1.5, rel_tol=1e-9)

    def test_truth_off_the_operator_grid_rejected(self):
        operator = RadianceOperator(ColumnMapping(), BiasModel(), (0, 1), grid_size=16)
        with pytest.raises(ValidationError, match="grid"):
            synthesize_observations(truth_state(grid_size=12), operator, 9, STDDEV)

    def test_nonpositive_stddev_rejected(self):
        for stddev in (0.0, -0.3):
            with pytest.raises(ValidationError):
                synthesize(truth_state(), BiasModel(), 9, (0, 1), stddev)

    @pytest.mark.parametrize("temperature", [-1.0, -1.5, -300.0])
    def test_surface_at_or_below_zero_kelvin_rejected(self, temperature):
        """A positive offset that an observed cell's temperature undercuts,
        which the config's load-time check cannot see, is rejected."""
        temperatures = np.zeros(12)
        temperatures[5] = temperature
        truth = ModelState(temperatures, np.full(12, 20.0))
        mapping = ColumnMapping(surface_offset_k=1.0)
        with pytest.raises(ValidationError, match="column temperatures must be positive"):
            synthesize(truth, BiasModel(), 9, (0, 5), STDDEV, mapping)
        # An unobserved cell's temperature is not a column.
        synthesize(truth, BiasModel(), 9, (0, 4), STDDEV, mapping)

    def test_non_finite_value_rejected(self):
        """Finite coefficients whose correction overflows to inf, or to
        inf - inf = nan (the scan position 5 term), are caught."""
        for bias in (
            BiasModel(0.0, (1e308,), PREDICTORS[:1]),
            BiasModel(0.0, (1e308, -1e308), PREDICTORS),
        ):
            with pytest.raises(ValidationError, match="finite"):
                synthesize(truth_state(), bias, 9, (0, 5), STDDEV)


class TestRadianceOperator:
    def make_operator(self, bias=None, grid_size=12):
        truth = truth_state(grid_size=grid_size)
        bias = bias or BiasModel(0.1, (0.01, -0.02), ("surface_temperature", "scan_position"))
        locations = tuple(range(0, grid_size, 3))
        operator = RadianceOperator(
            mapping=ColumnMapping(),
            bias_template=bias,
            obs_locations=locations,
            grid_size=grid_size,
        )
        return operator, truth, bias, locations

    def test_bias_background_is_the_template(self):
        operator, _, bias, _ = self.make_operator()
        assert np.array_equal(operator.bias_background, [0.1, 0.01, -0.02])
        with pytest.raises(ValueError):
            operator.bias_background[0] = 1.0

    def test_values_match_scalar_forward_path(self):
        """Vectorized evaluation equals the per-column scalar operator."""
        operator, truth, bias, locations = self.make_operator()
        x = np.concatenate([truth.temperature_field, truth.moisture_field])
        beta = np.array([bias.constant_coefficient_k, *bias.coefficients])
        values = operator.values(x, beta)
        for got, loc in zip(values, locations):
            assert abs(got - scalar_at(truth, loc, ColumnMapping(), bias)) < 1e-10

    def test_jacobians_match_finite_differences(self):
        operator, truth, bias, _ = self.make_operator()
        x = np.concatenate([truth.temperature_field, truth.moisture_field])
        beta = np.array([bias.constant_coefficient_k, *bias.coefficients])
        jac_state, jac_bias = operator.jacobians(x, beta)
        h = 1e-6
        for i in range(operator.n_state):
            up = x.copy()
            down = x.copy()
            up[i] += h
            down[i] -= h
            fd = (operator.values(up, beta) - operator.values(down, beta)) / (2 * h)
            assert np.allclose(jac_state[:, i], fd, atol=1e-5)
        for i in range(operator.n_bias):
            up = beta.copy()
            down = beta.copy()
            up[i] += h
            down[i] -= h
            fd = (operator.values(x, up) - operator.values(x, down)) / (2 * h)
            assert np.allclose(jac_bias[:, i], fd, atol=1e-5)

    def test_negative_moisture_floored_with_zero_sensitivity(self):
        operator, truth, bias, locations = self.make_operator()
        x = np.concatenate([truth.temperature_field, truth.moisture_field])
        n = truth.grid_size
        x[n + locations[0]] = -2.0
        floored = x.copy()
        floored[n + locations[0]] = 0.0
        beta = np.array([bias.constant_coefficient_k, *bias.coefficients])
        assert np.allclose(operator.values(x, beta), operator.values(floored, beta))
        jac_state, _ = operator.jacobians(x, beta)
        assert jac_state[0, n + locations[0]] == 0.0

    @staticmethod
    def moisture_derivative(q, t_surf, t_atm, kappa):
        """d T_b / d q from the operator's Jacobian, for one column at cell 0."""
        mapping = ColumnMapping(kappa, t_surf, t_atm)
        operator = RadianceOperator(mapping, BiasModel(), (0,), grid_size=4)
        state = np.array([0.0, 0.0, 0.0, 0.0, q, 0.0, 0.0, 0.0])
        jac_state, _ = operator.jacobians(state, np.zeros(1))
        return jac_state[0, 4]

    def test_moisture_derivative_matches_scalar_forward(self):
        """The analytic d T_b / d q against h = 1e-4 max(1, q) central
        differences of the scalar ``bias_corrected_forward``.

        Sampling stays below six optical depths and away from isothermal
        columns, where the derivative underflows and a relative comparison
        stops being meaningful.
        """
        rng = np.random.default_rng(100)
        for _ in range(100):
            q = float(rng.uniform(0.5, 50))
            t_s = float(rng.uniform(270, 310))
            t_a = float(rng.uniform(230, 260))
            kappa = float(rng.uniform(0.02, 0.12))
            h = 1e-4 * max(1.0, q)
            fd = (brightness(q + h, t_s, t_a, kappa) - brightness(q - h, t_s, t_a, kappa)) / (2 * h)
            analytic = self.moisture_derivative(q, t_s, t_a, kappa)
            assert abs(analytic - fd) <= 1e-6 * max(1e-12, abs(fd))

    def test_isothermal_column_has_no_moisture_sensitivity(self):
        assert self.moisture_derivative(12.0, 270.0, 270.0, 0.05) == 0.0

    def test_out_of_grid_location_rejected(self):
        for locations in ((0, 12), (-1, 3)):
            with pytest.raises(ValidationError):
                RadianceOperator(ColumnMapping(), BiasModel(), locations, grid_size=12)

    def test_non_integer_location_rejected(self):
        """A location is an integer grid cell: a float or a bool is rejected
        naming ``obs_locations``, not read as the cell it truncates to; a
        numpy integer is accepted."""
        bias = BiasModel(0.0, (0.0,), ("scan_position",))
        for locations in ((1.5, True), (0, 2.0), (0, True), (np.float64(3.0),), (np.bool_(True),)):
            with pytest.raises(ValidationError) as excinfo:
                RadianceOperator(ColumnMapping(), bias, locations, grid_size=8)
            assert excinfo.value.field == "obs_locations"
        operator = RadianceOperator(ColumnMapping(), bias, (np.int64(1), 3), grid_size=8)
        _, jac_bias = operator.jacobians(np.zeros(operator.n_state), operator.bias_background)
        assert np.array_equal(jac_bias[:, 1], [1, 3])


class TestBuildProblem:
    def test_dimensions(self):
        truth = truth_state()
        bias = BiasModel(0.0, (0.0,), ("surface_temperature",))
        locations = (0, 4, 8)
        operator = RadianceOperator(ColumnMapping(), bias, locations, truth.grid_size)
        obs = synthesize_observations(truth, operator, 3, STDDEV)
        problem = build_problem(truth, operator, obs, 1.0, 0.5, STDDEV)
        assert problem.n_state == 24
        assert problem.background.shape == (26,)
        assert np.array_equal(problem.background, [*truth.vector, 0.0, 0.0])
        assert problem.obs_variances.shape == (3,)
        assert np.array_equal(problem.obs_values, obs)

    def test_covariances_from_arguments(self):
        truth = truth_state()
        operator = RadianceOperator(ColumnMapping(), BiasModel(), (0, 2), truth.grid_size)
        obs = synthesize_observations(truth, operator, 3, 0.5)
        problem = build_problem(truth, operator, obs, 2.0, 0.7, 0.5)
        assert np.array_equal(problem.obs_variances, [0.25, 0.25])
        assert np.array_equal(problem.prior_variances, [*np.full(24, 2.0), 0.7])

