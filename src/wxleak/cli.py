"""Command-line interface.

Subcommands:

* ``run CONFIG``    - execute the scenario exactly as configured
* ``sweep CONFIG``  - same, with the default 7-level leakage sweep in place of
  the file's levels, validated and hashed as if written in it
* ``noise-table``   - emit the induced-noise-temperature curve as CSV
* ``check``         - run the built-in invariant self-tests

Exit codes: 0 success, 1 validation/config error, 2 runtime error.
"""

from __future__ import annotations

import math
import sys

import click

from .errors import ValidationError
from .experiment import (
    DEFAULT_LEAKAGE_SWEEP_DBW,
    _fmt,
    emit_csv,
    emit_noise_table_csv,
    emit_summary,
    load_config,
    noise_table,
    run_scenario,
)
from .leakage import AntennaModel, LinkBudget
from . import selfcheck

EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

#: Most rows ``noise-table`` writes; the default table has 41.
NOISE_TABLE_MAX_ROWS = 100_000


@click.group()
def main() -> None:
    """Leakage-to-forecast impact simulator."""


def _scenario_command(name: str, help_text: str, force_default_sweep: bool) -> None:
    """Register ``run`` or ``sweep``: one option stack and one body for both."""

    @main.command(name, help=help_text)
    @click.argument("config_path", metavar="CONFIG")
    @click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write report CSV here.")
    @click.option("--verbose", is_flag=True, help="Print provenance and progress.")
    @click.option("--seed-override", type=int, default=None, help="Replace all seeds (n, n+1, n+2).")
    def command(config_path: str, out: str | None, verbose: bool, seed_override: int | None) -> None:
        try:
            config = load_config(
                config_path,
                seed_override=seed_override,
                leakage_levels=DEFAULT_LEAKAGE_SWEEP_DBW if force_default_sweep else None,
            )
            if verbose:
                click.echo(f"loaded config {config_path} (hash {config.config_hash[:12]})")
            report = run_scenario(config, trace_stream=sys.stdout if verbose else None)
        except ValidationError as exc:
            click.echo(f"validation error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except Exception as exc:
            click.echo(f"runtime error: {exc}", err=True)
            sys.exit(EXIT_RUNTIME)
        emit_summary(report, sys.stdout)
        if out is not None:
            try:
                emit_csv(report, out)
            except OSError as exc:
                click.echo(f"runtime error: could not write {out}: {exc}", err=True)
                sys.exit(EXIT_RUNTIME)
            if verbose:
                click.echo(f"wrote {out}")


_scenario_command("run", "Run the scenario described by CONFIG.", force_default_sweep=False)
_scenario_command(
    "sweep", "Run CONFIG with the default leakage sweep (-55 to -15 dBW).", force_default_sweep=True
)


@main.command("noise-table")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write CSV here instead of stdout.")
@click.option("--min", "min_dbw", type=float, default=DEFAULT_LEAKAGE_SWEEP_DBW[0], show_default=True, help="Lowest leakage level, dBW.")
@click.option("--max", "max_dbw", type=float, default=DEFAULT_LEAKAGE_SWEEP_DBW[-1], show_default=True, help="Highest leakage level, dBW.")
@click.option("--step", type=float, default=1.0, show_default=True, help="Level spacing, dB.")
@click.option("--pathloss", type=float, default=LinkBudget().total_pathloss_db, show_default=True, help="Total link pathloss, dB.")
@click.option("--efficiency", type=float, default=AntennaModel().radiation_efficiency, show_default=True, help="Antenna radiation efficiency.")
def noise_table_command(
    out: str | None,
    min_dbw: float,
    max_dbw: float,
    step: float,
    pathloss: float,
    efficiency: float,
) -> None:
    """Emit induced noise temperature vs leakage power as CSV."""
    try:
        for option, value in (
            ("--min", min_dbw),
            ("--max", max_dbw),
            ("--step", step),
            ("--pathloss", pathloss),
            ("--efficiency", efficiency),
        ):
            if not math.isfinite(value):
                raise ValidationError(f"{option} must be finite, got {value}")
        if pathloss <= 0:
            raise ValidationError(f"--pathloss must be positive, got {pathloss}")
        # The brightness error divides by the efficiency.
        if not 0.0 < efficiency <= 1.0:
            raise ValidationError(f"--efficiency must lie in (0, 1], got {efficiency}")
        if step <= 0 or max_dbw < min_dbw:
            raise ValidationError("need step > 0 and max >= min")
        # Counted before any row is made: a span of steps that is not finite
        # or too long for a table would otherwise never finish. The slack, a
        # billionth of a step, keeps a --max that rounding leaves just short of
        # the last step, and adds no row to a span shorter than one step.
        steps = (max_dbw - min_dbw) / step + 1e-9
        if not steps < NOISE_TABLE_MAX_ROWS:
            raise ValidationError(
                f"--step must give at most {NOISE_TABLE_MAX_ROWS} rows from --min to --max, "
                f"got {steps:.3g} steps"
            )
        link = LinkBudget(total_pathloss_db=pathloss)
        antenna = AntennaModel(radiation_efficiency=efficiency)
        levels = [min_dbw + i * step for i in range(math.floor(steps) + 1)]
        # Each row is labelled with its level's CSV cell, as a config's
        # leakage_levels are with theirs, and no two rows may share one.
        labels = [_fmt(level) for level in levels]
        for a, b in zip(labels, labels[1:]):
            if a == b:
                raise ValidationError(f"--step {step:g} gives levels that share the row label {a}")
        rows = noise_table(levels, link, antenna)
        for level, _, noise_k, delta_tb in rows:
            if not math.isfinite(noise_k):
                raise ValidationError(f"--max {max_dbw:g} dBW gives a noise temperature of inf K")
            if not math.isfinite(delta_tb):
                raise ValidationError(
                    f"--efficiency {efficiency:g} gives a brightness error of inf K at {level:g} dBW"
                )
    except ValidationError as exc:
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    if out is None:
        emit_noise_table_csv(rows, sys.stdout)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                emit_noise_table_csv(rows, fh)
        except OSError as exc:
            click.echo(f"runtime error: could not write {out}: {exc}", err=True)
            sys.exit(EXIT_RUNTIME)


@main.command()
@click.option("--verbose", is_flag=True, help="Show detail for passing checks too.")
def check(verbose: bool) -> None:
    """Run the invariant self-test suite."""
    try:
        results = selfcheck.run_all()
    except Exception as exc:
        click.echo(f"runtime error: {exc}", err=True)
        sys.exit(EXIT_RUNTIME)
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        line = f"{status}  {result.name}"
        if verbose or not result.passed:
            line += f"  ({result.detail})"
        click.echo(line)
        failed += 0 if result.passed else 1
    if failed:
        click.echo(f"{failed} of {len(results)} checks failed", err=True)
        sys.exit(EXIT_RUNTIME)
    click.echo(f"all {len(results)} checks passed")


if __name__ == "__main__":
    main()
