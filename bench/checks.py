"""Correctness of one scenario report, as the benchmark judges it.

Every report must satisfy the invariants the acceptance suite pins: the
baseline row is exactly zero, there is one row per configured level in
order, and each level's ``noise_K`` and ``delta_tb_K`` are the leakage
chain's values at nine significant digits. Every divergence is also finite
and non-negative, and no RMS exceeds its maximum. When a reference report
is stored for the workload and seed, its numbers must also match within
the workload's relative tolerance (the divergence columns only where the
workload's lead is predictable) and the ``converged`` column must match
exactly. Byte identity with the reference is reported separately and is
not required: the hash line changes with the config schema, and the last
digit may move by rounding.
"""

from __future__ import annotations

import math
import os

from wxleak.experiment import leakage_chain, parse_report_csv

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
DIVERGENCE_PAIRS = (
    ("precip_diff_max_mm", "precip_diff_rms_mm"),
    ("t2m_diff_max_C", "t2m_diff_rms_C"),
)
DIVERGENCE_COLUMNS = tuple(column for pair in DIVERGENCE_PAIRS for column in pair)
ZERO_COLUMNS = ("noise_K", "delta_tb_K") + DIVERGENCE_COLUMNS


def reference_path(workload: str, seed: int) -> str:
    return os.path.join(REFERENCE_DIR, workload, f"seed-{seed}.csv")


def _nine_digits(value: float) -> float:
    return float(f"{value:.9g}")


def invariant_problems(rows: list[dict], config) -> list[str]:
    problems = []
    labels = [row["leakage_dBW"] for row in rows]
    expected = ["baseline"] + [f"{level:g}" for level in config.leakage_levels]
    if labels != expected:
        return [f"row labels {labels} != {expected}"]
    for column in ZERO_COLUMNS:
        if rows[0][column] != 0.0:
            problems.append(f"baseline {column} = {rows[0][column]!r}, not 0")
    for row, level in zip(rows[1:], config.leakage_levels):
        noise_k, delta_tb = leakage_chain(config, level)
        if row["noise_K"] != _nine_digits(noise_k):
            problems.append(f"level {level:g}: noise_K {row['noise_K']!r} != {noise_k!r}")
        if row["delta_tb_K"] != _nine_digits(delta_tb):
            problems.append(f"level {level:g}: delta_tb_K {row['delta_tb_K']!r} != {delta_tb!r}")
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(f"level {level:g}: {key} is {value!r}")
        for max_key, rms_key in DIVERGENCE_PAIRS:
            if not 0.0 <= row[rms_key] <= row[max_key] * (1.0 + 1e-8):
                problems.append(
                    f"level {level:g}: {rms_key} {row[rms_key]!r} outside [0, {max_key} "
                    f"{row[max_key]!r}]"
                )
    return problems


def reference_problems(
    rows: list[dict], reference: list[dict], rtol: float, forecast_checked: bool
) -> list[str]:
    if len(rows) != len(reference):
        return [f"{len(rows)} rows, reference has {len(reference)}"]
    problems = []
    for row, ref in zip(rows, reference):
        label = ref["leakage_dBW"]
        if row["leakage_dBW"] != label:
            problems.append(f"row {row['leakage_dBW']} where reference has {label}")
            continue
        if row["converged"] != ref["converged"]:
            problems.append(f"{label}: converged {row['converged']} != {ref['converged']}")
        for key, want in ref.items():
            if not isinstance(want, float):
                continue
            if key in DIVERGENCE_COLUMNS and not forecast_checked:
                continue
            got = row[key]
            if abs(got - want) > rtol * max(abs(got), abs(want)):
                problems.append(f"{label}: {key} {got!r} vs reference {want!r} (rtol {rtol:g})")
    return problems


def check_report(csv_path: str, config, workload, seed: int) -> dict:
    """Judge one written report; ``problems`` empty means it passed."""
    rows = parse_report_csv(csv_path)
    problems = invariant_problems(rows, config)
    ref_path = reference_path(workload.name, seed)
    identical = None
    if os.path.exists(ref_path):
        problems += reference_problems(
            rows, parse_report_csv(ref_path), workload.rtol, workload.forecast_checked
        )
        with open(csv_path, "rb") as got, open(ref_path, "rb") as want:
            identical = got.read() == want.read()
    return {
        "problems": problems,
        "has_reference": identical is not None,
        "bytes_identical_to_reference": identical,
    }
