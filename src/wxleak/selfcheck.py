"""Built-in invariant checks backing the CLI ``check`` subcommand.

Each check is quick, deterministic and self-contained; together they cover
the cross-module contracts that matter most in the field: the physics
identities of the leakage chain, the gradient of the analysis cost, and the
end-to-end determinism of a tiny scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import assim, experiment, leakage, model, osse
from .rng import SeededRng


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_noise_scaling() -> CheckResult:
    link = leakage.LinkBudget()
    temps = [
        leakage.induced_noise_temperature(
            leakage.received_power(level, link), leakage.VICTIM_CHANNEL
        )
        for level in (-55.0, -45.0, -35.0, -25.0, -15.0)
    ]
    worst = max(abs(b / a - 10.0) for a, b in zip(temps, temps[1:]))
    return CheckResult(
        "noise temperature decade law",
        worst < 1e-9 * 10.0,
        f"max ratio deviation {worst:.3e}",
    )


def _check_antenna_identities() -> CheckResult:
    rng = SeededRng(11)
    worst = 0.0
    for _ in range(1000):
        eta = rng.uniform()
        t_b = 150.0 + 150.0 * rng.uniform()
        t_p = 250.0 + 60.0 * rng.uniform()
        antenna = leakage.AntennaModel(eta, t_p)
        t_a = leakage.antenna_temperature(t_b, antenna)
        if not (min(t_b, t_p) - 1e-9 <= t_a <= max(t_b, t_p) + 1e-9):
            return CheckResult("antenna temperature bounds", False, f"t_a {t_a} out of range")
        noise_k = leakage.induced_noise_temperature(
            3e-15 * rng.uniform(), leakage.VICTIM_CHANNEL
        )
        if eta > 0.01:
            dtb = leakage.brightness_perturbation(noise_k, antenna)
            recovered = leakage.antenna_temperature(
                t_b + dtb, antenna
            ) - leakage.antenna_temperature(t_b, antenna)
            if noise_k > 0:
                worst = max(worst, abs(recovered - noise_k) / noise_k)
    return CheckResult(
        "antenna perturbation round trip", worst < 1e-9, f"max relative error {worst:.3e}"
    )


def _check_mask_additivity() -> CheckResult:
    mask = leakage.default_emission_mask()
    victim = leakage.VICTIM_CHANNEL
    aggressor = leakage.AGGRESSOR_CHANNEL
    whole = leakage.aci_leakage_fraction(mask, aggressor, victim)
    mid = 0.5 * (victim.f_low_hz + victim.f_high_hz)
    low = leakage.aci_leakage_fraction(
        mask, aggressor, leakage.ChannelSpec(victim.f_low_hz, mid)
    )
    high = leakage.aci_leakage_fraction(
        mask, aggressor, leakage.ChannelSpec(mid, victim.f_high_hz)
    )
    err = abs((low + high) - whole)
    ok = 0.0 <= whole <= 1.0 and err < 1e-6
    return CheckResult("mask fraction sub-band additivity", ok, f"split error {err:.3e}")


def _check_aggregation_partition() -> CheckResult:
    parts = [leakage.TransmitterField(count=c) for c in (37, 63)]
    split = leakage.sum_power_dbw(
        [leakage.aggregate_leakage_power(part, -41.0, 0.37) for part in parts]
    )
    whole = leakage.aggregate_leakage_power(leakage.TransmitterField(count=100), -41.0, 0.37)
    err = abs(split - whole)
    return CheckResult("aggregation partition invariance", err < 1e-9, f"error {err:.3e} dB")


def _check_forward_bounds() -> CheckResult:
    mapping = osse.ColumnMapping(surface_offset_k=288.0, atmosphere_temperature_k=248.0)
    n = 61  # one observed cell per moisture q, each a 288 K surface
    operator = osse.RadianceOperator(mapping, osse.BiasModel(), tuple(range(n)), n)
    q = np.linspace(0.0, 120.0, n)
    t_b = operator.values(np.concatenate([np.zeros(n), q]), operator.bias_background)
    inside = (248.0 - 1e-12 <= t_b) & (t_b <= 288.0 + 1e-12)  # False for NaN too
    if not inside.all():
        i = int(np.argmin(inside))
        return CheckResult("forward operator bounds", False, f"t_b {t_b[i]} at q {q[i]}")
    return CheckResult("forward operator bounds", True, "within [T_atm, T_surf] on grid")


def _check_gradient() -> CheckResult:
    truth = model.nature_run(model.Workspace(12, model.ModelParams()), 5, 200).final
    mapping = osse.ColumnMapping()
    bias = osse.BiasModel(0.0, (0.0,), ("surface_temperature",))
    locations = tuple(range(0, 12, 2))
    shipped = experiment.config_from_dict({})  # the shipped covariances
    stddev = shipped.obs_error_stddev_k
    operator = osse.RadianceOperator(mapping, bias, locations, 12)
    obs = osse.synthesize_observations(truth, operator, 9, stddev) + 0.1
    background = model.ModelState.from_vector(truth.vector + np.repeat([0.3, -0.2], 12))
    problem = assim.build_problem(
        background, operator, obs, shipped.state_variance, shipped.bias_variance, stddev
    )
    flat = problem.background
    analytic = assim.gradient(flat, problem)
    fd = np.zeros_like(flat)
    for i in range(len(flat)):
        h = 1e-5 * max(1.0, abs(flat[i]))
        up = flat.copy()
        dn = flat.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (assim.cost(up, problem) - assim.cost(dn, problem)) / (2.0 * h)
    err = float(np.linalg.norm(analytic - fd) / max(1e-300, np.linalg.norm(fd)))
    return CheckResult("analysis gradient vs finite differences", err < 1e-6, f"relative error {err:.3e}")


def _check_model_fixed_point() -> CheckResult:
    params = model.ModelParams(moisture_coupling=0.0)
    n = 12
    x0 = np.concatenate([np.full(n, params.forcing), np.zeros(n)])
    err = float(np.max(np.abs(model.step(x0, model.Workspace(n, params)) - x0)))
    return CheckResult("uniform-forcing fixed point", err < 1e-12, f"max drift {err:.3e}")


def _check_null_experiment() -> CheckResult:
    raw = {
        "leakage_levels": [-300.0],
        "model": {"grid_size": 8},
        "observations": {"count": 4},
        "spinup_steps": 50,
        "forecast_length": 0.5,
    }
    config = experiment.config_from_dict(raw)
    report_a = experiment.run_scenario(config)
    report_b = experiment.run_scenario(config)
    row = report_a.levels[0]
    zero = (
        row.precip_diff_max_mm == 0.0
        and row.precip_diff_rms_mm == 0.0
        and row.t2m_diff_max_C == 0.0
        and row.t2m_diff_rms_C == 0.0
    )
    identical = report_a.rows == report_b.rows
    return CheckResult(
        "null-perturbation experiment",
        zero and identical,
        "zero diffs and repeatable" if zero and identical else "nonzero or unstable",
    )


CHECKS: tuple[Callable[[], CheckResult], ...] = (
    _check_noise_scaling,
    _check_antenna_identities,
    _check_mask_additivity,
    _check_aggregation_partition,
    _check_forward_bounds,
    _check_gradient,
    _check_model_fixed_point,
    _check_null_experiment,
)


def run_all() -> list[CheckResult]:
    return [check() for check in CHECKS]
