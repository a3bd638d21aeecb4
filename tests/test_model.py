"""Tests for the toy forecast model and its forecast loop."""

import inspect
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from wxleak.errors import ModelBlowUpError, ValidationError
from wxleak.model import (
    ModelParams,
    ModelState,
    Workspace,
    diagnostics,
    integrate,
    nature_run,
    step,
)
from wxleak.rng import SeededRng


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


def roll_update(t0, q0, p):
    """One RK4 update built on ``roll_tendencies``, in the production order,
    before the moisture clip."""
    h = p.dt
    k1t, k1q = roll_tendencies(t0, q0, p)
    k2t, k2q = roll_tendencies(t0 + 0.5 * h * k1t, q0 + 0.5 * h * k1q, p)
    k3t, k3q = roll_tendencies(t0 + 0.5 * h * k2t, q0 + 0.5 * h * k2q, p)
    k4t, k4q = roll_tendencies(t0 + h * k3t, q0 + h * k3q, p)
    t1 = t0 + (h / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
    q1 = q0 + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
    return t1, q1


def roll_step(t0, q0, p):
    """``roll_update`` with the moisture clipped at 0, as the step clips it."""
    t1, q1 = roll_update(t0, q0, p)
    return t1, np.maximum(q1, 0.0)


def walk(state, params, n_steps):
    """The ``n_steps`` states after ``state``, one ``step`` apart."""
    workspace, n = Workspace(state.grid_size, params), state.grid_size
    x, states = state.vector, []
    for _ in range(n_steps):
        x = step(x, workspace)
        states.append(ModelState(x[:n], x[n:]))
    return states


def integrate_fresh(state, params, n_steps):
    """``integrate`` on a workspace of its own."""
    return integrate(state, n_steps, Workspace(state.grid_size, params))


def loop_precipitation(state, params, n_steps):
    """The condensation sink r max(0, q - q_c), times dt, added at each left
    point of a step-by-step walk."""
    expected = np.zeros(state.grid_size)
    for left in [state] + walk(state, params, n_steps)[:-1]:
        sink = params.condensation_rate * np.maximum(
            0.0, left.moisture_field - params.condensation_threshold
        )
        expected += sink * params.dt
    return expected


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


class TestFromVector:
    def test_moisture_floored(self):
        vector = np.concatenate([np.zeros(4), np.array([1.0, -0.5, 2.0, 0.0])])
        state = ModelState.from_vector(vector)
        assert np.all(state.moisture_field >= 0.0)
        assert state.moisture_field[1] == 0.0
        assert_bitwise(state.temperature_field, np.zeros(4))

    @pytest.mark.parametrize(
        "vector", [np.zeros(7), np.zeros((2, 8)), np.array(1.0)], ids=["odd", "2d", "scalar"]
    )
    def test_odd_or_not_flat_rejected(self, vector):
        with pytest.raises(ValidationError) as excinfo:
            ModelState.from_vector(vector)
        assert str(excinfo.value).startswith("state vector must be a finite [T, q]")

    @pytest.mark.parametrize("index", [1, 5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad, index):
        """In either half; a -inf moisture is not floored into a zero."""
        vector = np.ones(8)
        vector[index] = bad
        with pytest.raises(ValidationError):
            ModelState.from_vector(vector)

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValidationError, match="grid needs at least 4 cells"):
            ModelState.from_vector(np.zeros(6))

    @pytest.mark.parametrize("n", [4, 5, 40])
    def test_bits_of_the_field_by_field_conversion(self, n):
        """The state of ``[T, q]`` is ``ModelState(T, max(0, q))`` bit for bit,
        signed zeros and negative moisture included."""
        rng = np.random.default_rng(n)
        for _ in range(20):
            vector = rng.normal(0.0, 5.0, 2 * n)
            vector[rng.integers(0, 2 * n, 3)] = -0.0
            vector[n + rng.integers(0, n)] = -1e-300
            want = ModelState(vector[:n], np.maximum(0.0, vector[n:]))
            got = ModelState.from_vector(vector)
            assert_bitwise(got.vector, want.vector)
            assert np.any(vector[n:] < 0.0)


class TestStep:
    def test_uniform_forcing_fixed_point(self):
        """Dry, uncoupled, uniform-at-forcing state has zero tendency."""
        params = ModelParams(moisture_coupling=0.0)
        state = ModelState(np.full(12, params.forcing), np.zeros(12))
        assert np.array_equal(step(state.vector, Workspace(12, params)), state.vector)

    def test_deterministic(self):
        params = ModelParams()
        state, workspace = smooth_initial_state(), Workspace(40, params)
        assert np.array_equal(step(state.vector, workspace), step(state.vector, workspace))

    def test_tendencies_match_loop_oracle(self):
        """The vectorized right-hand side of the step oracles against an
        index-by-index duplicate; the step is tested bit for bit against
        ``roll_step``, which is built on it."""
        rng = np.random.default_rng(0)
        params = ModelParams()
        for _ in range(20):
            t = rng.normal(5, 4, 16)
            q = np.abs(rng.normal(22, 8, 16))
            dt_vec, dq_vec = roll_tendencies(t, q, params)
            dt_ref, dq_ref = loop_tendencies(t, q, params)
            assert np.max(np.abs(dt_vec - dt_ref)) < 1e-12
            assert np.max(np.abs(dq_vec - dq_ref)) < 1e-12

    def test_fields_read_only(self):
        stepped = integrate_fresh(smooth_initial_state(), ModelParams(), 1).final
        for field in (stepped.temperature_field, stepped.moisture_field):
            assert not field.flags.writeable
            with pytest.raises(ValueError):
                field[0] = 1.0

    def test_moisture_clipped_nonnegative(self):
        params = ModelParams()
        state = ModelState(8.0 + np.random.default_rng(1).normal(0, 2, 20),
                           np.full(20, 0.01))
        for current in walk(state, params, 200):
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
        assert_bitwise(step(state.vector, Workspace(n, params)), np.concatenate([t_ref, q_ref]))
        for expected in walk(state, params, 300):
            t, q = roll_step(t, q, params)
            assert_bitwise(expected.temperature_field, t)
            assert_bitwise(expected.moisture_field, q)
        final = integrate_fresh(state, params, 300).final
        assert_bitwise(final.temperature_field, t)
        assert_bitwise(final.moisture_field, q)

    @pytest.mark.parametrize(
        "threshold, t, q",
        [
            (25.0, [-2.0, -1.0, -1.0, -1.0, 0.0, 0.0, 0.0, -1.0], [-0.0] * 6 + [0.001, 0.0]),
            (0.0, [100.0, -0.0, -50.0, 50.0, 100.0, -50.0], [-0.0, -0.0, 2e-322, 0.0, -0.0, -0.0]),
        ],
        ids=["default", "step_update"],
    )
    def test_clip_leaves_no_negative_zero_moisture(self, threshold, t, q):
        """A dry cell's RK4 update can reach -0.0 moisture; the step's clip
        returns +0.0 for it. So ``integrate``'s final ``from_vector``, whose
        floor keeps a -0.0, changes no bit of the step's output. The first
        input reaches -0.0 in the oracle's update only: the step sums its
        stages with a row reduce, which starts from +0.0. The second reaches
        it in the step's update too, where the clip alone removes it, so a
        clip that keeps -0.0 fails here."""
        params = ModelParams(condensation_threshold=threshold)
        t, q = np.array(t), np.array(q)
        _, q_update = roll_update(t, q, params)
        assert np.any((q_update == 0.0) & np.signbit(q_update))
        state = ModelState(t, q)
        states = walk(state, params, 20)
        for current in states:
            t, q = roll_step(t, q, params)
            assert_bitwise(current.vector, np.concatenate([t, q]))
            assert not np.any(np.signbit(current.moisture_field))
        final = integrate_fresh(state, params, 20).final
        assert_bitwise(final.vector, states[-1].vector)
        assert not np.any(np.signbit(final.moisture_field))

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
            integrate_fresh(state, params, 50)
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
                    step(bad, workspace)

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
                step(state.vector, workspace)
            workspace.sixth_h[i] = params.dt / 6.0
        fresh = Workspace(40, params)
        assert np.array_equal(step(state.vector, workspace), step(state.vector, fresh))

    def test_interleaved_forecasts_bitwise_equal_roll_oracle(self):
        params = ModelParams()
        states = [smooth_initial_state(40), smooth_initial_state(41)]
        workspaces = [Workspace(40, params), Workspace(41, params)]
        vectors = [s.vector for s in states]
        fields = [(s.temperature_field, s.moisture_field) for s in states]
        for _ in range(200):
            for i in range(2):
                vectors[i] = step(vectors[i], workspaces[i])
                fields[i] = roll_step(*fields[i], params)
                assert_bitwise(vectors[i], np.concatenate(fields[i]))

    def test_buffers_hold_every_array_a_step_writes(self):
        params = ModelParams()
        workspace = Workspace(40, params)
        held = closure_arrays(workspace.step)
        step(mixed_state(seed=1).vector, workspace)
        before = [array.copy() for array in held]
        step(mixed_state(seed=2).vector, workspace)
        written = [a for a, b in zip(held, before) if not np.array_equal(a, b, equal_nan=True)]
        for array in written:
            assert any(np.shares_memory(array, buffer) for buffer in workspace.buffers)
        for buffer in workspace.buffers:
            assert any(np.shares_memory(array, buffer) for array in written)

    def test_returned_vectors_share_no_memory(self):
        params = ModelParams()
        workspace = Workspace(40, params)
        held = closure_arrays(workspace.step)
        held += workspace.buffers
        previous = mixed_state().vector
        for _ in range(5):
            current = step(previous, workspace)
            assert not np.shares_memory(current, previous)
            for array in held:
                assert not np.shares_memory(current, array)
            previous = current

    @pytest.mark.parametrize("n", [4, 5, 40, 41])
    def test_step_on_a_shared_workspace_equals_step_on_a_fresh_one(self, n):
        params = ModelParams(dt=0.02)
        workspace = Workspace(n, params)
        x = smooth_initial_state(n).vector
        for _ in range(50):
            stepped = step(x, workspace)
            assert np.array_equal(stepped, step(x, Workspace(n, params)))
            x = stepped

    def test_mismatched_workspace_rejected(self):
        params = ModelParams()
        with pytest.raises(ValidationError):
            step(smooth_initial_state(41).vector, Workspace(40, params))
        with pytest.raises(ValidationError):  # before a precipitation of the wrong size
            integrate(smooth_initial_state(41), 0, Workspace(40, params))

    def test_minimum_grid_size(self):
        with pytest.raises(ValidationError):
            Workspace(3, ModelParams())


class TestIntegrate:
    def test_default_forecast_raises_no_warning(self):
        """A 1200-step forecast, the default lead, warns of nothing: no
        floating-point fault and no deprecated numpy call."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            final = integrate_fresh(mixed_state(), ModelParams(), 1200).final
        assert np.isfinite(final.vector).all()

    def test_zero_steps(self):
        state = smooth_initial_state()
        forecast = integrate_fresh(state, ModelParams(), 0)
        assert forecast.final is state
        assert forecast.states == (state,)

    def test_steps_vectors_and_builds_only_the_final_state(self, monkeypatch):
        """``step`` maps a ``[T, q]`` vector to a new one, and a forecast of
        any length wraps only its final vector in a ``ModelState``."""
        workspace = Workspace(40, ModelParams())
        state = mixed_state()
        x1 = step(state.vector, workspace)
        assert type(x1) is np.ndarray and x1.shape == state.vector.shape
        assert_bitwise(x1, integrate(state, 1, workspace).final.vector)
        built = []
        init = ModelState.__init__

        def counted_init(self, *args):
            built.append(None)
            init(self, *args)

        monkeypatch.setattr(ModelState, "__init__", counted_init)
        for n_steps in (1, 2, 30, 1200):
            built.clear()
            integrate(state, n_steps, workspace)
            assert len(built) == 1
        built.clear()
        assert integrate(state, 0, workspace).final is state
        assert built == []

    def test_retains_one_state_and_takes_weak_references(self):
        forecast = integrate_fresh(smooth_initial_state(), ModelParams(), 10)
        assert forecast.states == (forecast.final,)
        released = []
        weakref.finalize(forecast, released.append, True)
        del forecast
        assert released == [True]

    def test_memory_does_not_grow_with_the_step_count(self):
        """A 1200-step forecast on a warm workspace, its diagnostics included,
        peaks at a few states' worth of memory, not a state per step (about
        1.3 MB when every state and a (steps, n) sink matrix were held)."""
        params = ModelParams()
        workspace = Workspace(40, params)
        state = mixed_state()
        integrate(state, 1200, workspace)
        tracemalloc.start()
        try:
            diagnostics(integrate(state, 1200, workspace))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32_000

    def test_flow_composition_bitwise(self):
        """Integrating a+b steps equals integrating a then b, bitwise."""
        params = ModelParams()
        state = smooth_initial_state()
        whole = integrate_fresh(state, params, 30)
        first = integrate_fresh(state, params, 18)
        second = integrate_fresh(first.final, params, 12)
        assert np.array_equal(whole.final.temperature_field, second.final.temperature_field)
        assert np.array_equal(whole.final.moisture_field, second.final.moisture_field)

    def test_long_run_bitwise_equal_roll_oracle(self):
        params = ModelParams()
        state = smooth_initial_state()
        t, q = state.temperature_field, state.moisture_field
        for expected in walk(state, params, 1200):
            t, q = roll_step(t, q, params)
            assert_bitwise(expected.temperature_field, t)
            assert_bitwise(expected.moisture_field, q)
        final = integrate_fresh(state, params, 1200).final
        assert_bitwise(final.temperature_field, t)
        assert_bitwise(final.moisture_field, q)

    def test_rk4_self_convergence(self):
        """Halving dt shrinks the fixed-time error by roughly 2^4."""
        state = smooth_initial_state()

        def state_at_t1(dt):
            traj = integrate_fresh(state, ModelParams(dt=dt), round(1.0 / dt))
            return np.concatenate([traj.final.temperature_field, traj.final.moisture_field])

        reference = state_at_t1(0.00125)
        errors = {dt: np.linalg.norm(state_at_t1(dt) - reference) for dt in (0.02, 0.01, 0.005)}
        ratio_1 = errors[0.02] / errors[0.01]
        ratio_2 = errors[0.01] / errors[0.005]
        assert 12.0 <= ratio_1 <= 20.0
        assert 12.0 <= ratio_2 <= 20.0

    def test_negative_steps_rejected(self):
        with pytest.raises(ValidationError):
            integrate_fresh(smooth_initial_state(), ModelParams(), -1)


class TestDiagnostics:
    def test_dry_trajectory_has_zero_precipitation(self):
        params = ModelParams()
        state = ModelState(np.full(8, 8.0), np.full(8, 10.0))
        precip, _ = diagnostics(integrate_fresh(state, params, 20))
        assert np.all(precip == 0.0)

    def test_single_step_hand_value(self):
        """One step, 5 units above threshold, rate 0.2, dt 0.01: 0.01 mm."""
        params = ModelParams(moisture_coupling=0.0)
        state = ModelState(np.zeros(8), np.full(8, params.condensation_threshold + 5.0))
        precip, _ = diagnostics(integrate_fresh(state, params, 1))
        assert np.allclose(precip, 0.01, rtol=1e-12)

    def test_identical_trajectories_identical_diagnostics(self):
        params = ModelParams()
        forecasts = [integrate_fresh(smooth_initial_state(), params, 25) for _ in range(2)]
        for a, b in zip(diagnostics(forecasts[0]), diagnostics(forecasts[1])):
            assert_bitwise(a, b)

    def test_additive_over_concatenation(self):
        params = ModelParams()
        state = smooth_initial_state()
        first = integrate_fresh(state, params, 15)
        second = integrate_fresh(first.final, params, 10)
        whole = integrate_fresh(state, params, 25)
        split_sum = diagnostics(first)[0] + diagnostics(second)[0]
        total = diagnostics(whole)[0]
        assert np.allclose(split_sum, total, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("grid_size, n_steps", [(40, 1200), (4, 7), (5, 30), (41, 200)])
    def test_precipitation_bitwise_equal_loop_oracle(self, grid_size, n_steps):
        """The in-step accumulation adds the left points in the order of a
        step-by-step loop."""
        params = ModelParams()
        state = smooth_initial_state(grid_size)
        expected = loop_precipitation(state, params, n_steps)
        assert np.any(expected > 0.0)
        assert_bitwise(diagnostics(integrate_fresh(state, params, n_steps))[0], expected)

    def test_interleaved_forecasts_on_one_workspace_equal_fresh_ones(self):
        """Forecasts that take turns on one workspace, with lone steps on it
        in between, accumulate the bits of forecasts on their own."""
        params = ModelParams()
        workspace = Workspace(40, params)
        starts = [mixed_state(seed=seed) for seed in range(3)]
        for n_steps in (30, 1, 0, 200, 7):
            for start in starts:
                shared = integrate(start, n_steps, workspace)
                step(start.vector, workspace)
                fresh = integrate_fresh(start, params, n_steps)
                assert_bitwise(shared.precipitation, fresh.precipitation)
                assert_bitwise(shared.final.vector, fresh.final.vector)
        assert np.any(shared.precipitation > 0.0)

    def test_zero_step_trajectory_has_zero_precipitation(self):
        precip, _ = diagnostics(integrate_fresh(smooth_initial_state(6), ModelParams(), 0))
        assert precip.shape == (6,)
        assert np.all(precip == 0.0)

    def test_temperature_report_offset(self):
        forecast = integrate_fresh(smooth_initial_state(), ModelParams(), 5)
        _, t2m = diagnostics(forecast)
        assert np.allclose(t2m, forecast.final.temperature_field + 273.0)


class TestNatureRun:
    def test_same_seed_bitwise_identical(self):
        a = nature_run(Workspace(12, ModelParams()), 42, 120)
        b = nature_run(Workspace(12, ModelParams()), 42, 120)
        assert_bitwise(a.final.vector, b.final.vector)
        assert_bitwise(a.precipitation, b.precipitation)

    @pytest.mark.parametrize(
        "grid_size, spinup_steps, seed",
        [(12, 100, 27), (4, 1, 141), (40, 7, 4)],
        ids=["12-100", "4-1", "40-7"],
    )
    def test_is_the_forecast_of_the_seeded_initial_state(self, grid_size, spinup_steps, seed):
        """The truth is the spin-up's forecast from the documented initial
        state: temperature from one draw of ``grid_size`` normals, then
        moisture from the next, floored at zero (at threshold 0, each grid's
        seed floors a cell)."""
        params = ModelParams(condensation_threshold=0.0)
        rng = SeededRng(seed)
        temperature = params.forcing + 0.5 * np.array(rng.normals(grid_size))
        moisture = np.maximum(0.0, 5.0 + 2.0 * np.array(rng.normals(grid_size)))
        assert np.any(moisture == 0.0)
        initial = ModelState(temperature, moisture)
        truth = nature_run(Workspace(grid_size, params), seed, spinup_steps)
        final = integrate_fresh(initial, params, spinup_steps).final
        assert_bitwise(truth.final.vector, final.vector)
        assert_bitwise(truth.precipitation, loop_precipitation(initial, params, spinup_steps))

    def test_different_seeds_differ_at_start(self):
        a = nature_run(Workspace(12, ModelParams()), 1, 0)
        b = nature_run(Workspace(12, ModelParams()), 2, 0)
        assert not np.array_equal(a.final.temperature_field, b.final.temperature_field)

    def test_initial_moisture_follows_the_condensation_threshold(self):
        """Moisture starts 5 above the threshold: raising the threshold by 15
        raises every cell's initial moisture by 15 (none is floored at 0)."""
        base = nature_run(Workspace(12, ModelParams()), 4, 0).final
        wetter = nature_run(Workspace(12, ModelParams(condensation_threshold=40.0)), 4, 0).final
        assert base.moisture_field.min() > 20.0
        np.testing.assert_allclose(wetter.moisture_field - base.moisture_field, 15.0)

    def test_post_spinup_variance_in_chaotic_band(self):
        """Temperature variance sits in the [2, 30] band measured for F = 8."""
        params = ModelParams()
        spun_up = nature_run(Workspace(40, params), 7, 1000).final
        temps = np.array([s.temperature_field for s in [spun_up] + walk(spun_up, params, 1000)])
        assert 2.0 <= temps.var() <= 30.0

    def test_moisture_nonnegative_throughout(self):
        params = ModelParams()
        spun_up = nature_run(Workspace(20, params), 3, 200).final
        for state in [spun_up] + walk(spun_up, params, 200):
            assert np.all(state.moisture_field >= 0.0)
