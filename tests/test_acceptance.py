"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Every tolerance and runtime budget is stated inline.
"""

import math
import time

import numpy as np
from click.testing import CliRunner

from wxleak.assim import gradient, minimize
from wxleak.cli import main
from wxleak.experiment import config_from_dict, emit_csv, run_scenario
from wxleak.leakage import (
    AGGRESSOR_CHANNEL,
    AntennaModel,
    VICTIM_CHANNEL,
    aci_leakage_fraction,
    antenna_temperature,
    brightness_perturbation,
    induced_noise_temperature,
)
from wxleak.model import ModelParams, ModelState, Workspace, integrate
from wxleak.rng import SeededRng

from test_assim import (
    direct_solve,
    finite_difference_gradient,
    radiance_problem,
    random_linear_problem,
    scalar_bias_problem,
)
from test_leakage import brute_force_fraction, random_emission_mask


def report(number, name, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} ({detail}; {elapsed:.2f}s of {budget:.0f}s budget)")
    assert passed, f"criterion {number} ({name}): {detail}"
    assert elapsed < budget, f"criterion {number} ({name}) exceeded {budget}s: {elapsed:.2f}s"


def test_criterion_1_noise_curve_reproduction(tmp_path):
    """Induced-noise curve: reference points at -20/-15 dBW and the decade slope."""
    start = time.perf_counter()
    out = tmp_path / "noise.csv"
    result = CliRunner().invoke(
        main, ["noise-table", "--min", "-55", "--max", "-15", "--step", "1", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    rows = {}
    lines = out.read_text().splitlines()
    for line in lines[1:]:
        cells = line.split(",")
        rows[float(cells[0])] = float(cells[2])
    ok_minus20 = abs(rows[-20.0] - 0.26826) / 0.26826 <= 1e-5
    ok_minus15 = abs(rows[-15.0] - 0.84831) / 0.84831 <= 1e-5
    slope_ok = True
    for level in np.arange(-55.0, -25.0 + 0.5, 1.0):
        decade = math.log10(rows[level + 10.0]) - math.log10(rows[level])
        slope_ok &= abs(decade - 1.0) <= 1e-9
    elapsed = time.perf_counter() - start
    report(
        1,
        "noise curve",
        ok_minus20 and ok_minus15 and slope_ok,
        f"T(-20)={rows[-20.0]:.6f} K, T(-15)={rows[-15.0]:.6f} K, slope exact to 1e-9",
        elapsed,
        1.0,
    )


def test_criterion_2_antenna_relation_properties():
    """Antenna blend identities on 1e4 randomized inputs: zero failures."""
    start = time.perf_counter()
    rng = SeededRng(20260810)
    failures = 0
    for _ in range(10_000):
        eta = rng.uniform()
        t_b = 150.0 + 170.0 * rng.uniform()
        t_p = 250.0 + 70.0 * rng.uniform()
        antenna = AntennaModel(eta, t_p)
        t_a = antenna_temperature(t_b, antenna)
        if not (min(t_b, t_p) - 1e-9 <= t_a <= max(t_b, t_p) + 1e-9):
            failures += 1
        if antenna_temperature(t_b, AntennaModel(1.0, t_p)) != t_b:
            failures += 1
        if antenna_temperature(t_b, AntennaModel(0.0, t_p)) != t_p:
            failures += 1
        # round trip; noise drawn in the physically relevant decade range,
        # above the float cancellation floor of the 1e-9 relative contract
        eta_rt = 0.05 + 0.95 * rng.uniform()
        noise = induced_noise_temperature(10.0 ** (-16.0 + 2.5 * rng.uniform()), VICTIM_CHANNEL)
        rt_antenna = AntennaModel(eta_rt, t_p)
        delta = brightness_perturbation(noise, rt_antenna)
        recovered = antenna_temperature(t_b + delta, rt_antenna) - antenna_temperature(
            t_b, rt_antenna
        )
        if abs(recovered - noise) > 1e-9 * noise:
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        2,
        "antenna relation",
        failures == 0,
        f"{failures} failures over 10000 randomized inputs",
        elapsed,
        1.0,
    )


def test_criterion_3_variational_analysis_correctness():
    """Scalar closed form, gradient vs finite differences, direct-solve oracle."""
    start = time.perf_counter()
    problems = []

    result = minimize(scalar_bias_problem())
    scalar_ok = (
        abs(result.analysis_bias[0] - 0.5) <= 1e-6 and abs(result.final_cost - 0.25) <= 1e-8
    )
    problems.append(f"scalar beta={result.analysis_bias[0]:.8f} J={result.final_cost:.10f}")

    worst_grad = 0.0
    for seed in range(100):
        if seed % 2 == 0:
            problem = random_linear_problem(seed)
            rng = np.random.default_rng(seed + 1000)
            control = problem.background + 0.3 * rng.normal(size=problem.background.shape)
        else:
            problem = radiance_problem(seed)
            control = problem.background
        analytic = gradient(control, problem)
        fd = finite_difference_gradient(problem, control)
        worst_grad = max(worst_grad, float(np.linalg.norm(analytic - fd) / np.linalg.norm(fd)))
    grad_ok = worst_grad <= 1e-6
    problems.append(f"worst gradient error {worst_grad:.2e}")

    worst_solve = 0.0
    for seed in range(20):
        problem = random_linear_problem(seed + 500)
        result = minimize(problem)
        expected = direct_solve(problem)
        got = np.concatenate([result.analysis_state, result.analysis_bias])
        worst_solve = max(
            worst_solve, float(np.linalg.norm(got - expected) / np.linalg.norm(expected))
        )
    solve_ok = worst_solve <= 1e-6
    problems.append(f"worst direct-solve error {worst_solve:.2e}")

    elapsed = time.perf_counter() - start
    report(3, "variational analysis", scalar_ok and grad_ok and solve_ok,
           "; ".join(problems), elapsed, 10.0)


def test_criterion_4_null_experiment(tmp_path):
    """No perturbation means no impact: exact zeros and byte-identical reruns."""
    start = time.perf_counter()
    config = config_from_dict({"leakage_levels": [-300.0]})
    report_a = run_scenario(config)
    report_b = run_scenario(config)
    a_path = tmp_path / "a.csv"
    b_path = tmp_path / "b.csv"
    emit_csv(report_a, str(a_path))
    emit_csv(report_b, str(b_path))
    row = report_a.levels[0]
    zeros_ok = (
        row.precip_diff_max_mm == 0.0
        and row.precip_diff_rms_mm == 0.0
        and row.t2m_diff_max_C == 0.0
        and row.t2m_diff_rms_C == 0.0
        and report_a.baseline.precip_diff_max_mm == 0.0
    )
    bytes_ok = a_path.read_bytes() == b_path.read_bytes()
    elapsed = time.perf_counter() - start
    report(
        4,
        "null experiment",
        zeros_ok and bytes_ok,
        f"all difference metrics exactly 0, byte-identical reruns={bytes_ok}",
        elapsed,
        10.0,
    )


def test_criterion_5_directional_sensitivity():
    """More leakage, more forecast divergence: rank correlation over the sweep."""
    start = time.perf_counter()
    config = config_from_dict({"ensemble_size": 20, "forecast_length": 1.0})
    result = run_scenario(config)
    divergence = [row.t2m_diff_rms_C for row in result.levels]
    levels = [row.leakage_dBW for row in result.levels]

    def spearman(x, y):
        rx = np.argsort(np.argsort(x)).astype(float)
        ry = np.argsort(np.argsort(y)).astype(float)
        rx -= rx.mean()
        ry -= ry.mean()
        return float((rx @ ry) / math.sqrt((rx @ rx) * (ry @ ry)))

    rho = spearman(levels, divergence)
    ends_ok = divergence[-1] > divergence[0]
    elapsed = time.perf_counter() - start
    report(
        5,
        "directional sensitivity",
        rho >= 0.9 and ends_ok,
        f"spearman={rho:.3f} over 7 levels x 20 members, "
        f"div(-15)={divergence[-1]:.3e} > div(-55)={divergence[0]:.3e}",
        elapsed,
        60.0,
    )


def test_criterion_6_rk4_self_convergence():
    """Fourth-order step: halving dt divides the t=1 error by 12 to 20."""
    start = time.perf_counter()
    n = 40
    k = np.arange(n)
    init = ModelState(
        8.0 + 0.5 * np.sin(2 * np.pi * k / n), 30.0 + 2.0 * np.cos(2 * np.pi * k / n)
    )

    def state_at_t1(dt):
        traj = integrate(init, round(1.0 / dt), Workspace(n, ModelParams(dt=dt)))
        return np.concatenate([traj.final.temperature_field, traj.final.moisture_field])

    reference = state_at_t1(0.00125)
    errors = {dt: float(np.linalg.norm(state_at_t1(dt) - reference)) for dt in (0.02, 0.01, 0.005)}
    ratio_1 = errors[0.02] / errors[0.01]
    ratio_2 = errors[0.01] / errors[0.005]
    ok = 12.0 <= ratio_1 <= 20.0 and 12.0 <= ratio_2 <= 20.0
    elapsed = time.perf_counter() - start
    report(
        6,
        "integrator convergence",
        ok,
        f"error ratios {ratio_1:.2f}, {ratio_2:.2f} within [12, 20]",
        elapsed,
        5.0,
    )


def test_criterion_7_mask_quadrature():
    """Mask fraction against a 1e6-point oracle on 20 random masks, plus additivity."""
    start = time.perf_counter()
    rng = np.random.default_rng(20261)
    worst = 0.0
    worst_split = 0.0
    mid = 0.5 * (VICTIM_CHANNEL.f_low_hz + VICTIM_CHANNEL.f_high_hz)
    from wxleak.leakage import ChannelSpec

    low_band = ChannelSpec(VICTIM_CHANNEL.f_low_hz, mid)
    high_band = ChannelSpec(mid, VICTIM_CHANNEL.f_high_hz)
    for _ in range(20):
        mask = random_emission_mask(rng)
        frac = aci_leakage_fraction(mask, AGGRESSOR_CHANNEL, VICTIM_CHANNEL)
        oracle = brute_force_fraction(mask, AGGRESSOR_CHANNEL, VICTIM_CHANNEL, n=1_000_000)
        worst = max(worst, abs(frac - oracle))
        split = aci_leakage_fraction(mask, AGGRESSOR_CHANNEL, low_band) + aci_leakage_fraction(
            mask, AGGRESSOR_CHANNEL, high_band
        )
        worst_split = max(worst_split, abs(split - frac))
    ok = worst <= 1e-6 and worst_split <= 1e-6
    elapsed = time.perf_counter() - start
    report(
        7,
        "mask quadrature",
        ok,
        f"worst oracle gap {worst:.2e}, worst additivity gap {worst_split:.2e}",
        elapsed,
        5.0,
    )
