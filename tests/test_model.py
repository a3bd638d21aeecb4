"""Tests for the toy forecast model and its trajectory machinery."""

import inspect
import warnings

import numpy as np
import pytest

from wxleak.errors import ModelBlowUpError, ValidationError
from wxleak.model import (
    ForecastDiagnostics,
    ModelParams,
    ModelState,
    Trajectory,
    Workspace,
    condensation,
    diagnostics,
    integrate,
    nature_run,
    step,
    tendencies,
)


def loop_tendencies(t, q, p):
    """Straightforward per-index re-implementation of the right-hand side."""
    n = len(t)
    dt_dt = np.zeros(n)
    dq_dt = np.zeros(n)
    for k in range(n):
        dt_dt[k] = (
            (t[(k + 1) % n] - t[(k - 2) % n]) * t[(k - 1) % n]
            - t[k]
            + p.forcing
            + p.moisture_coupling * q[k]
        )
        if t[k] > 0.0:
            advection = -t[k] * (q[k] - q[(k - 1) % n])
        else:
            advection = -t[k] * (q[(k + 1) % n] - q[k])
        dq_dt[k] = advection - p.condensation_rate * max(0.0, q[k] - p.condensation_threshold)
    return dt_dt, dq_dt


def roll_tendencies(t, q, p):
    """The right-hand side written with np.roll, in the production arithmetic
    order: the moisture advection is the negated upwind difference times T,
    which keeps the program's sign of a zero tendency."""
    dt_dt = (
        (np.roll(t, -1) - np.roll(t, 2)) * np.roll(t, 1)
        - t
        + p.forcing
        + p.moisture_coupling * q
    )
    negated_backward = np.roll(q, 1) - q
    negated_forward = q - np.roll(q, -1)
    dq_dt = np.where(t > 0.0, negated_backward, negated_forward) * t - p.condensation_rate * (
        np.maximum(0.0, q - p.condensation_threshold)
    )
    return dt_dt, dq_dt


def assert_bitwise(got, want):
    """Equal bit patterns: unlike ``np.array_equal``, -0.0 differs from +0.0."""
    assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


def roll_step(t0, q0, p):
    """One RK4 step built on ``roll_tendencies``, in the production order."""
    h = p.dt
    k1t, k1q = roll_tendencies(t0, q0, p)
    k2t, k2q = roll_tendencies(t0 + 0.5 * h * k1t, q0 + 0.5 * h * k1q, p)
    k3t, k3q = roll_tendencies(t0 + 0.5 * h * k2t, q0 + 0.5 * h * k2q, p)
    k4t, k4q = roll_tendencies(t0 + h * k3t, q0 + h * k3q, p)
    t1 = t0 + (h / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
    q1 = q0 + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
    return t1, np.maximum(q1, 0.0)


def closure_arrays(function):
    """Every array held by ``function``'s closure, through nested closures."""
    arrays = []
    for cell in function.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif inspect.isfunction(value):
            arrays += closure_arrays(value)
    return arrays


def mixed_state(n=40, seed=0):
    """Temperatures of both signs, moisture on both sides of the threshold."""
    rng = np.random.default_rng(seed)
    return ModelState(rng.normal(2.0, 6.0, n), np.abs(rng.normal(25.0, 6.0, n)))


MISMATCH = "temperature and moisture fields must be equal-length vectors"


def smooth_initial_state(n=40):
    k = np.arange(n)
    return ModelState(
        8.0 + 0.5 * np.sin(2 * np.pi * k / n),
        30.0 + 2.0 * np.cos(2 * np.pi * k / n),
    )


class TestModelState:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ModelState(np.zeros(5), np.zeros(4))

    def test_minimum_grid_size(self):
        with pytest.raises(ValidationError):
            ModelState(np.zeros(3), np.zeros(3))

    def test_negative_moisture_rejected(self):
        with pytest.raises(ValidationError):
            ModelState(np.zeros(5), np.array([0.0, 1.0, -0.1, 0.0, 0.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            ModelState(np.array([0.0, np.nan, 0.0, 0.0]), np.zeros(4))

    def test_fields_read_only(self):
        state = ModelState(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            state.temperature_field[0] = 1.0

    def test_copies_inputs_into_one_read_only_vector(self):
        t = np.linspace(-1.0, 1.0, 6)
        q = np.linspace(0.0, 30.0, 6)
        state = ModelState(t, q)
        t_before, q_before = t.copy(), q.copy()
        t[:] = 99.0
        q[:] = 99.0
        assert np.array_equal(state.temperature_field, t_before)
        assert np.array_equal(state.moisture_field, q_before)
        assert np.array_equal(state.vector, np.concatenate([t_before, q_before]))
        assert state.grid_size == 6
        for field in (state.vector, state.temperature_field, state.moisture_field):
            assert not field.flags.writeable
            with pytest.raises(ValueError):
                field[0] = 1.0
        with pytest.raises(AttributeError):
            state.vector = np.zeros(12)

    @pytest.mark.parametrize(
        "t, q, message",
        [
            (np.zeros(5), np.zeros(4), MISMATCH),
            (np.zeros((2, 4)), np.zeros((2, 4)), MISMATCH),
            (np.zeros(3), np.zeros(3), "grid needs at least 4 cells"),
            (np.array([0.0, np.inf, 0.0, 0.0]), np.zeros(4), "model state must be finite"),
            (np.zeros(4), np.array([0.0, np.nan, 0.0, 0.0]), "model state must be finite"),
            (np.zeros(4), np.array([0.0, 1.0, -0.1, 0.0]), "moisture must be >= 0"),
        ],
    )
    def test_validation_messages(self, t, q, message):
        with pytest.raises(ValidationError) as excinfo:
            ModelState(t, q)
        assert str(excinfo.value) == message


class TestStep:
    def test_uniform_forcing_fixed_point(self):
        """Dry, uncoupled, uniform-at-forcing state has zero tendency."""
        params = ModelParams(moisture_coupling=0.0)
        state = ModelState(np.full(12, params.forcing), np.zeros(12))
        stepped = step(state, params)
        assert np.array_equal(stepped.temperature_field, state.temperature_field)
        assert np.array_equal(stepped.moisture_field, state.moisture_field)

    def test_deterministic(self):
        params = ModelParams()
        state = smooth_initial_state()
        a = step(state, params)
        b = step(state, params)
        assert np.array_equal(a.temperature_field, b.temperature_field)
        assert np.array_equal(a.moisture_field, b.moisture_field)

    def test_tendencies_match_loop_oracle(self):
        """Vectorized right-hand side against an index-by-index duplicate."""
        rng = np.random.default_rng(0)
        params = ModelParams()
        for _ in range(20):
            t = rng.normal(5, 4, 16)
            q = np.abs(rng.normal(22, 8, 16))
            dt_vec, dq_vec = np.split(tendencies(np.concatenate([t, q]), params), 2)
            dt_ref, dq_ref = loop_tendencies(t, q, params)
            assert np.max(np.abs(dt_vec - dt_ref)) < 1e-12
            assert np.max(np.abs(dq_vec - dq_ref)) < 1e-12

    @pytest.mark.parametrize("n", [4, 5, 40, 41])
    def test_tendencies_bitwise_equal_roll_oracle(self, n):
        rng = np.random.default_rng(n)
        params = ModelParams()
        for _ in range(20):
            t = rng.normal(2, 6, n)
            q = np.abs(rng.normal(22, 8, n))
            # Dry cells under negative temperatures: the upwind difference is
            # +0.0 and cells 0 and 1 have a moisture tendency of -0.0.
            t[:3] = -3.0
            q[:3] = 0.0
            dt_vec, dq_vec = np.split(tendencies(np.concatenate([t, q]), params), 2)
            dt_ref, dq_ref = roll_tendencies(t, q, params)
            assert np.signbit(dq_vec[:2]).all()
            assert_bitwise(dt_vec, dt_ref)
            assert_bitwise(dq_vec, dq_ref)

    def test_fields_read_only(self):
        stepped = step(smooth_initial_state(), ModelParams())
        for field in (stepped.temperature_field, stepped.moisture_field):
            assert not field.flags.writeable
            with pytest.raises(ValueError):
                field[0] = 1.0

    def test_moisture_clipped_nonnegative(self):
        params = ModelParams()
        state = ModelState(8.0 + np.random.default_rng(1).normal(0, 2, 20),
                           np.full(20, 0.01))
        current = state
        for _ in range(200):
            current = step(current, params)
            assert np.all(current.moisture_field >= 0.0)

    @pytest.mark.parametrize("n", [4, 5, 40, 41])
    def test_step_and_integrate_bitwise_equal_roll_oracle(self, n):
        """Zero temperatures exercise the upwind switch; moisture starts on
        both sides of the condensation threshold and at zero."""
        params = ModelParams()
        rng = np.random.default_rng(100 + n)
        t = rng.normal(2.0, 6.0, n)
        t[::3] = 0.0
        k = np.arange(n)
        q = params.condensation_threshold + np.where(k % 2 == 0, 5.0, -5.0)
        q += rng.normal(0.0, 1.0, n)
        q[1::4] = 0.0
        q[2] = params.condensation_threshold
        state = ModelState(t, q)
        assert np.any(q > params.condensation_threshold)
        assert np.any((q > 0.0) & (q < params.condensation_threshold))
        t_ref, q_ref = roll_step(t, q, params)
        stepped = step(state, params)
        assert_bitwise(stepped.temperature_field, t_ref)
        assert_bitwise(stepped.moisture_field, q_ref)
        traj = integrate(state, params, 300)
        for expected in traj.states[1:]:
            t, q = roll_step(t, q, params)
            assert_bitwise(expected.temperature_field, t)
            assert_bitwise(expected.moisture_field, q)

    def test_blow_up_reports_step(self):
        """Oversized time step blows up and the error names the step index:
        the step at which the oracle first turns non-finite."""
        params = ModelParams(dt=2.0)
        state = smooth_initial_state()
        t, q = state.temperature_field, state.moisture_field
        expected = None
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(50):
                t, q = roll_step(t, q, params)
                if not (np.isfinite(t).all() and np.isfinite(q).all()):
                    expected = i
                    break
        assert expected is not None
        with pytest.raises(ModelBlowUpError) as excinfo:
            integrate(state, params, 50)
        assert excinfo.value.step_index == expected


class TestWorkspace:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_at_any_position_raises(self, value):
        params = ModelParams()
        vector = smooth_initial_state().vector
        workspace = Workspace(40, params)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(vector.shape[0]):
                bad = vector.copy()
                bad[i] = value
                with pytest.raises(ModelBlowUpError):
                    step(ModelState._trusted(bad), params, workspace)

    def test_finiteness_check_sees_every_element(self):
        """A NaN in the last multiplier reaches exactly one element of the
        new state, and the moisture clip keeps it; each must be caught."""
        params = ModelParams()
        state = smooth_initial_state()
        workspace = Workspace(40, params)
        assert any(array is workspace.sixth_h for array in closure_arrays(workspace.step))
        for i in range(80):
            workspace.sixth_h[i] = np.nan
            with np.errstate(invalid="ignore"), pytest.raises(ModelBlowUpError):
                step(state, params, workspace)
            workspace.sixth_h[i] = params.dt / 6.0
        assert np.array_equal(step(state, params, workspace).vector, step(state, params).vector)

    def test_interleaved_forecasts_bitwise_equal_roll_oracle(self):
        params = ModelParams()
        states = [smooth_initial_state(40), smooth_initial_state(41)]
        workspaces = [Workspace(40, params), Workspace(41, params)]
        fields = [(s.temperature_field, s.moisture_field) for s in states]
        for _ in range(200):
            for i in range(2):
                states[i] = step(states[i], params, workspaces[i])
                fields[i] = roll_step(*fields[i], params)
                assert_bitwise(states[i].temperature_field, fields[i][0])
                assert_bitwise(states[i].moisture_field, fields[i][1])

    def test_buffers_hold_every_array_a_step_writes(self):
        params = ModelParams()
        workspace = Workspace(40, params)
        held = closure_arrays(workspace.step) + closure_arrays(workspace.tendencies)
        step(mixed_state(seed=1), params, workspace)
        before = [array.copy() for array in held]
        step(mixed_state(seed=2), params, workspace)
        written = [a for a, b in zip(held, before) if not np.array_equal(a, b, equal_nan=True)]
        for array in written:
            assert any(np.shares_memory(array, buffer) for buffer in workspace.buffers)
        for buffer in workspace.buffers:
            assert any(np.shares_memory(array, buffer) for array in written)

    def test_returned_vectors_share_no_memory(self):
        params = ModelParams()
        workspace = Workspace(40, params)
        held = closure_arrays(workspace.step) + closure_arrays(workspace.tendencies)
        held += workspace.buffers
        previous = mixed_state()
        for _ in range(5):
            current = step(previous, params, workspace)
            assert not np.shares_memory(current.vector, previous.vector)
            for array in held:
                assert not np.shares_memory(current.vector, array)
            previous = current

    @pytest.mark.parametrize("n", [4, 5, 40, 41])
    def test_step_without_workspace_equals_step_with_one(self, n):
        params = ModelParams(dt=0.02)
        workspace = Workspace(n, params)
        state = smooth_initial_state(n)
        for _ in range(50):
            stepped = step(state, params, workspace)
            assert np.array_equal(stepped.vector, step(state, params).vector)
            state = stepped

    def test_mismatched_workspace_rejected(self):
        params = ModelParams()
        with pytest.raises(ValidationError):
            step(smooth_initial_state(41), params, Workspace(40, params))
        with pytest.raises(ValidationError):
            step(smooth_initial_state(), params, Workspace(40, ModelParams(dt=0.02)))
        stepped = step(smooth_initial_state(), params, Workspace(40, ModelParams()))
        assert np.array_equal(stepped.vector, step(smooth_initial_state(), params).vector)

    def test_minimum_grid_size(self):
        with pytest.raises(ValidationError):
            Workspace(3, ModelParams())


class TestIntegrate:
    def test_default_forecast_raises_no_warning(self):
        """A 1200-step forecast, the default lead, warns of nothing: no
        floating-point fault and no deprecated numpy call."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            final = integrate(mixed_state(), ModelParams(), 1200).final
        assert np.isfinite(final.vector).all()

    def test_zero_steps(self):
        state = smooth_initial_state()
        traj = integrate(state, ModelParams(), 0)
        assert len(traj.states) == 1
        assert traj.states[0] is state

    def test_flow_composition_bitwise(self):
        """Integrating a+b steps equals integrating a then b, bitwise."""
        params = ModelParams()
        state = smooth_initial_state()
        whole = integrate(state, params, 30)
        first = integrate(state, params, 18)
        second = integrate(first.final, params, 12)
        assert np.array_equal(whole.final.temperature_field, second.final.temperature_field)
        assert np.array_equal(whole.final.moisture_field, second.final.moisture_field)

    def test_long_run_bitwise_equal_roll_oracle(self):
        params = ModelParams()
        state = smooth_initial_state()
        traj = integrate(state, params, 1200)
        t, q = state.temperature_field, state.moisture_field
        for expected in traj.states[1:]:
            t, q = roll_step(t, q, params)
            assert_bitwise(expected.temperature_field, t)
            assert_bitwise(expected.moisture_field, q)

    def test_rk4_self_convergence(self):
        """Halving dt shrinks the fixed-time error by roughly 2^4."""
        state = smooth_initial_state()

        def state_at_t1(dt):
            traj = integrate(state, ModelParams(dt=dt), round(1.0 / dt))
            return np.concatenate([traj.final.temperature_field, traj.final.moisture_field])

        reference = state_at_t1(0.00125)
        errors = {dt: np.linalg.norm(state_at_t1(dt) - reference) for dt in (0.02, 0.01, 0.005)}
        ratio_1 = errors[0.02] / errors[0.01]
        ratio_2 = errors[0.01] / errors[0.005]
        assert 12.0 <= ratio_1 <= 20.0
        assert 12.0 <= ratio_2 <= 20.0

    def test_negative_steps_rejected(self):
        with pytest.raises(ValidationError):
            integrate(smooth_initial_state(), ModelParams(), -1)


class TestDiagnostics:
    def test_dry_trajectory_has_zero_precipitation(self):
        params = ModelParams()
        state = ModelState(np.full(8, 8.0), np.full(8, 10.0))
        traj = integrate(state, params, 20)
        diag = diagnostics(traj, params)
        assert np.all(diag.accumulated_precipitation_mm == 0.0)

    def test_single_step_hand_value(self):
        """One step, 5 units above threshold, rate 0.2, dt 0.01: 0.01 mm."""
        params = ModelParams(moisture_coupling=0.0)
        state = ModelState(np.zeros(8), np.full(8, params.condensation_threshold + 5.0))
        traj = integrate(state, params, 1)
        diag = diagnostics(traj, params)
        assert np.allclose(diag.accumulated_precipitation_mm, 0.01, rtol=1e-12)

    def test_identical_trajectories_identical_diagnostics(self):
        params = ModelParams()
        traj = integrate(smooth_initial_state(), params, 25)
        a = diagnostics(traj, params)
        b = diagnostics(traj, params)
        assert np.array_equal(a.accumulated_precipitation_mm, b.accumulated_precipitation_mm)
        assert np.array_equal(a.two_meter_temperature_k, b.two_meter_temperature_k)

    def test_additive_over_concatenation(self):
        params = ModelParams()
        state = smooth_initial_state()
        first = integrate(state, params, 15)
        second = integrate(first.final, params, 10)
        whole = integrate(state, params, 25)
        split_sum = (
            diagnostics(first, params).accumulated_precipitation_mm
            + diagnostics(second, params).accumulated_precipitation_mm
        )
        total = diagnostics(whole, params).accumulated_precipitation_mm
        assert np.allclose(split_sum, total, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("grid_size, n_steps", [(40, 1200), (4, 7), (5, 30), (41, 200)])
    def test_precipitation_bitwise_equal_loop_oracle(self, grid_size, n_steps):
        """The vectorised sum adds the steps in the order of a step-by-step loop."""
        params = ModelParams()
        traj = integrate(smooth_initial_state(grid_size), params, n_steps)
        expected = np.zeros(grid_size)
        for state in traj.states[:-1]:
            expected += condensation(state.moisture_field, params) * params.dt
        assert np.any(expected > 0.0)
        assert np.array_equal(diagnostics(traj, params).accumulated_precipitation_mm, expected)

    def test_zero_step_trajectory_has_zero_precipitation(self):
        params = ModelParams()
        traj = integrate(smooth_initial_state(6), params, 0)
        precip = diagnostics(traj, params).accumulated_precipitation_mm
        assert precip.shape == (6,)
        assert np.all(precip == 0.0)

    def test_temperature_report_offset(self):
        params = ModelParams()
        traj = integrate(smooth_initial_state(), params, 5)
        diag = diagnostics(traj, params)
        assert np.allclose(
            diag.two_meter_temperature_k, traj.final.temperature_field + 273.0
        )

    def test_negative_precipitation_rejected(self):
        with pytest.raises(ValidationError):
            ForecastDiagnostics(np.array([-0.1]), np.array([280.0]))


class TestNatureRun:
    def test_same_seed_bitwise_identical(self):
        a = nature_run(ModelParams(), 42, 100, 20, grid_size=12)
        b = nature_run(ModelParams(), 42, 100, 20, grid_size=12)
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(sa.temperature_field, sb.temperature_field)
            assert np.array_equal(sa.moisture_field, sb.moisture_field)

    def test_different_seeds_differ_at_start(self):
        a = nature_run(ModelParams(), 1, 0, 0, grid_size=12)
        b = nature_run(ModelParams(), 2, 0, 0, grid_size=12)
        assert not np.array_equal(a.states[0].temperature_field, b.states[0].temperature_field)

    def test_initial_moisture_follows_the_condensation_threshold(self):
        """Moisture starts 5 above the threshold: raising the threshold by 15
        raises every cell's initial moisture by 15 (none is floored at 0)."""
        base = nature_run(ModelParams(), 4, 0, 0, grid_size=12).final
        wetter = nature_run(ModelParams(condensation_threshold=40.0), 4, 0, 0, grid_size=12).final
        assert base.moisture_field.min() > 20.0
        np.testing.assert_allclose(wetter.moisture_field - base.moisture_field, 15.0)

    def test_post_spinup_variance_in_chaotic_band(self):
        """Temperature variance sits in the [2, 30] band measured for F = 8."""
        traj = nature_run(ModelParams(), 7, 1000, 1000, grid_size=40)
        temps = np.array([s.temperature_field for s in traj.states])
        assert 2.0 <= temps.var() <= 30.0

    def test_moisture_nonnegative_throughout(self):
        traj = nature_run(ModelParams(), 3, 200, 200, grid_size=20)
        for state in traj.states:
            assert np.all(state.moisture_field >= 0.0)


class TestTrajectoryValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Trajectory(())
