"""Tests for the radiance operator and bias-correction machinery."""

import math

import numpy as np
import pytest

from wxleak.errors import ValidationError
from wxleak.forward import (
    BiasModel,
    ColumnState,
    bias_corrected_forward,
    forward,
    predictors,
)
from wxleak.osse import ColumnMapping

KAPPA = ColumnMapping().opacity_coefficient


class TestForward:
    def test_transparent_limit(self):
        """Dry column: the radiometer sees the surface."""
        state = ColumnState(0.0, 290.0, 250.0)
        assert forward(state, KAPPA) == 290.0

    def test_opaque_limit(self):
        state = ColumnState(1e6, 290.0, 250.0)
        assert abs(forward(state, KAPPA) - 250.0) < 1e-9

    def test_hand_arithmetic(self):
        """kappa 0.05, q 20: one optical depth exactly."""
        state = ColumnState(20.0, 290.0, 250.0)
        assert math.isclose(forward(state, KAPPA), 264.7151776468577, rel_tol=1e-12)

    def test_monotone_decreasing_when_surface_warmer(self):
        values = [forward(ColumnState(q, 290.0, 250.0), KAPPA) for q in np.linspace(0, 80, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_monotone_increasing_when_atmosphere_warmer(self):
        values = [forward(ColumnState(q, 250.0, 290.0), KAPPA) for q in np.linspace(0, 80, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_bounded_by_temperatures(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            t_s = float(rng.uniform(240, 310))
            t_a = float(rng.uniform(220, 300))
            q = float(rng.uniform(0, 200))
            t_b = forward(ColumnState(q, t_s, t_a), KAPPA)
            assert min(t_s, t_a) - 1e-12 <= t_b <= max(t_s, t_a) + 1e-12

    def test_negative_vapor_rejected(self):
        with pytest.raises(ValidationError):
            ColumnState(-1.0, 290.0, 250.0)

    def test_invalid_opacity_rejected(self):
        with pytest.raises(ValidationError):
            ColumnMapping(opacity_coefficient=0.0)


class TestPredictors:
    def test_empty_list(self):
        bias = BiasModel()
        assert predictors(ColumnState(10.0, 290.0, 250.0), 0, bias) == []

    def test_surface_temperature_pass_through(self):
        bias = BiasModel(0.0, (0.0,), ("surface_temperature",))
        values = predictors(ColumnState(10.0, 290.0, 250.0), 0, bias)
        assert values == [290.0]

    def test_scan_position_pass_through(self):
        bias = BiasModel(0.0, (0.0,), ("scan_position",))
        values = predictors(ColumnState(10.0, 290.0, 250.0), 7, bias)
        assert values == [7.0]

    def test_unknown_predictor_fails_at_construction(self):
        with pytest.raises(ValidationError) as excinfo:
            BiasModel(0.0, (1.0,), ("latitude",))
        assert "latitude" in str(excinfo.value)

    def test_coefficient_length_mismatch(self):
        with pytest.raises(ValidationError):
            BiasModel(0.0, (1.0, 2.0), ("scan_position",))


class TestBiasCorrectedForward:
    def test_collapses_to_forward_with_zero_coefficients(self):
        state = ColumnState(20.0, 290.0, 250.0)
        bias = BiasModel(0.0, (0.0, 0.0), ("surface_temperature", "scan_position"))
        assert bias_corrected_forward(state, bias, 0, KAPPA) == forward(state, KAPPA)

    def test_constant_offset(self):
        state = ColumnState(20.0, 290.0, 250.0)
        bias = BiasModel(1.5)
        got = bias_corrected_forward(state, bias, 0, KAPPA)
        assert math.isclose(got, 264.7151776468577 + 1.5, rel_tol=1e-12)

    def test_surface_predictor_contribution(self):
        state = ColumnState(20.0, 290.0, 250.0)
        bias = BiasModel(0.0, (0.01,), ("surface_temperature",))
        got = bias_corrected_forward(state, bias, 0, KAPPA)
        assert math.isclose(got, forward(state, KAPPA) + 2.9, rel_tol=1e-12)

    def test_correction_affine_in_coefficients(self):
        """Doubling every coefficient doubles the correction term exactly."""
        state = ColumnState(15.0, 285.0, 255.0)
        scan = 5
        base = forward(state, KAPPA)
        one = BiasModel(0.7, (0.02, -0.1), ("surface_temperature", "scan_position"))
        two = BiasModel(1.4, (0.04, -0.2), ("surface_temperature", "scan_position"))
        c1 = bias_corrected_forward(state, one, scan, KAPPA) - base
        c2 = bias_corrected_forward(state, two, scan, KAPPA) - base
        assert abs(c2 - 2.0 * c1) <= 1e-12 * abs(c2)

