#!/usr/bin/env python3
"""wxleak benchmark: one workload per invocation, closed loop, one process.

Run from the repository root:

    python3 bench/run.py --workload default_run --seed 1 --seconds 40 --trace 0

The benchmark writes the workload's YAML config from the seed and then goes
the way ``wxleak run CONFIG --out PATH`` goes: ``load_config``, then
``run_scenario`` and ``emit_csv`` once per scenario, one scenario at a time,
each started when the previous one has finished, until ``--seconds`` have
passed. Every report is checked (see ``checks.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced scenarios and prints the per-layer metrics, including
the tracing overhead. Metric names and units come from ``BENCHMARK.json``.
The last line of standard output is one JSON object; a fuller record with
provenance and every sample goes to ``.bench_run/results/``.

Every reported time is in reference seconds: wall time with the machine's
drifting speed divided out, as ``speed.py`` explains. The raw wall-clock
samples are kept in the results record.
"""

import os

# BLAS pools are sized when numpy is imported, so cap them first. Scenario
# arrays hold at most a few hundred numbers, below any BLAS threading
# threshold, so one thread changes no result and no pool competes for cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import speed
from workloads import WORKLOADS

OUT_DIR = ".bench_run"
MIN_SETUP_PROBES = 7
MIN_SCENARIOS = 3
LOAD_CONFIG_REPEATS = 5

# Runs in a fresh interpreter: the clock starts before the package import.
SETUP_PROBE = """\
import time
start = time.perf_counter()
import sys
sys.path.insert(0, "src")
import wxleak
config = wxleak.load_config(sys.argv[1])
elapsed = time.perf_counter() - start
print(repr(elapsed), config.config_hash)
"""


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "--git-dir=.git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def setup_probe(config_path: str, expected_hash: str) -> float:
    """Seconds a fresh interpreter takes to import wxleak and load the config."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, config_path],
        capture_output=True, text=True, timeout=120,
    )
    if out.returncode != 0:
        fail(f"set-up probe failed:\n{out.stderr}")
    elapsed, digest = out.stdout.split()
    if digest != expected_hash:
        fail(f"set-up probe loaded config hash {digest}, expected {expected_hash}")
    return float(elapsed)


class Runner:
    """Runs and checks scenarios of one workload config."""

    def __init__(self, wxleak, checks, workload, seed, config, csv_path):
        self.wxleak, self.checks = wxleak, checks
        self.workload, self.seed, self.config = workload, seed, config
        self.csv_path = csv_path
        self.attempted = 0
        self.failed = 0
        self.kernel_s = []
        self.first_bytes = None
        self.last_check = None
        self.traced_bytes_match = True

    def scenario(self, meter, tracer=None):
        """One scenario, loaded config to written CSV, timed by ``meter``.
        Returns (reference seconds, wall seconds), or None when the scenario
        or its check raised. Either counts as failed, as does a report that
        fails a check; the time of a scenario whose check ran is kept."""
        wxleak = self.wxleak
        self.attempted += 1
        try:
            with meter.running():
                if tracer is None:
                    start = perf_counter()
                    report = wxleak.run_scenario(self.config)
                    wxleak.emit_csv(report, self.csv_path)
                    end = perf_counter()
                else:
                    with tracer.installed():
                        def traced_scenario():
                            report = wxleak.run_scenario(self.config)
                            tracer.call("experiment.emit_csv", wxleak.emit_csv, report, self.csv_path)

                        start = perf_counter()
                        tracer.call("scenario", traced_scenario)
                        end = perf_counter()
            self.kernel_s += meter.kernel_s
            times = meter.reference(start, end), end - start
            with open(self.csv_path, "rb") as fh:
                data = fh.read()
            result = self.checks.check_report(self.csv_path, self.config, self.workload, self.seed)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if self.first_bytes is None:
            self.first_bytes = data
        elif data != self.first_bytes:
            result["problems"].append("report bytes differ from this process's first run")
            if tracer is not None:
                self.traced_bytes_match = False
        result["sha256"] = hashlib.sha256(data).hexdigest()
        self.last_check = result
        if result["problems"]:
            for problem in result["problems"]:
                print(f"bench: check failed: {problem}", file=sys.stderr)
            self.failed += 1
        return times


def closed_loop(seconds: float, minimum: int, run_one) -> None:
    """Call ``run_one`` back to back: at least ``minimum`` times, then while
    one more call, at the mean length so far, still ends within ``seconds``."""
    count = 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if count >= minimum and elapsed * (count + 1) / count > seconds:
            return
        run_one(count)
        count += 1


def end_to_end(runner, args, config_path, cases):
    setup, setup_wall, times, wall = [], [], [], []

    def probe():
        meter = speed.SpeedMeter(sampling=False)
        with meter.running():
            seconds = setup_probe(config_path, runner.config.config_hash)
        setup_wall.append(seconds)
        setup.append(seconds * meter.scale)

    def run_one(_):
        probe()
        result = runner.scenario(speed.SpeedMeter())
        if result is not None:
            times.append(result[0])
            wall.append(result[1])

    # Set-up probes alternate with scenarios so that both see the same
    # stretch of machine load. The first may compile bytecode; it is not kept.
    setup_probe(config_path, runner.config.config_hash)
    closed_loop(args.seconds, MIN_SCENARIOS, run_one)
    while len(setup) < MIN_SETUP_PROBES:
        probe()
    if not times:
        fail("no scenario completed")
    q1, q3 = quartiles(times)
    metrics = {
        "scenario_s": statistics.median(times),
        "cases_per_s": statistics.median(cases / t for t in times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    detail = {
        "scenario_s": {"q1": q1, "q3": q3, "n": len(times), "samples": times},
        "scenario_wall_s": wall,
        "setup_s": setup,
        "setup_wall_s": setup_wall,
        "kernel_s": runner.kernel_s,
        "failed_frac": runner.failed / runner.attempted,
    }
    notes = {
        "scenario_s": f"(median of {len(times)}; q1 {q1:.4f}, q3 {q3:.4f}; "
        f"wall median {statistics.median(wall):.4f} s)",
        "setup_s": f"(median of {len(setup)} fresh interpreters; "
        f"wall median {statistics.median(setup_wall):.4f} s)",
        "cases_per_s": f"({cases} cases per scenario)",
    }
    return metrics, detail, notes


def layer_metrics(tracer, grid_size: int, duration) -> dict:
    """Per-layer metrics of one traced scenario, span lengths measured by
    ``duration(start, end)``."""
    calls, total_s, self_s = tracer.totals(duration)

    def busy(name: str) -> float:
        return total_s.get(name, 0.0)

    analyses = calls["assim.minimize"]
    iterations = calls["osse.operator_jacobians"] - analyses
    steps = tracer.counts["model.steps"]
    return {
        "model.integrate_s": busy("model.integrate"),
        "model.integrate_calls": calls["model.integrate"],
        "model.steps": steps,
        "model.cell_steps_per_s": steps * grid_size
        / (busy("model.integrate") + busy("model.nature_run")),
        "model.nature_run_s": busy("model.nature_run"),
        "model.diagnostics_s": busy("model.diagnostics"),
        "model.states_retained": tracer.peak_live_states,
        "assim.analyses": analyses,
        "assim.minimize_s": busy("assim.minimize"),
        "assim.minimize_self_s": self_s["assim.minimize"],
        "assim.iterations": iterations,
        "assim.iterations_per_analysis": iterations / analyses,
        "assim.cost_evals": calls["assim.cost"],
        "assim.values_per_iteration": calls["osse.operator_values"] / max(iterations, 1),
        "assim.unconverged": tracer.counts["assim.unconverged"],
        "osse.operator_values_calls": calls["osse.operator_values"],
        "osse.operator_values_s": busy("osse.operator_values"),
        "osse.operator_jacobians_calls": calls["osse.operator_jacobians"],
        "osse.operator_jacobians_s": busy("osse.operator_jacobians"),
        "osse.build_problem_calls": calls["osse.build_problem"],
        "osse.build_problem_s": busy("osse.build_problem"),
        "osse.synthesize_calls": calls["osse.synthesize"],
        "osse.synthesize_s": busy("osse.synthesize"),
        "forward.scalar_calls": calls["forward.scalar"],
        "forward.scalar_s": busy("forward.scalar"),
        "leakage.chain_s": busy("leakage.chain"),
        "leakage.mask_integral_calls": calls["leakage.mask_integral"],
        "leakage.mask_integral_s": busy("leakage.mask_integral"),
        "experiment.self_s": self_s["scenario"],
        "experiment.emit_csv_s": busy("experiment.emit_csv"),
    }


def per_layer(runner, args, config_path, cases, tracing):
    wxleak, config = runner.wxleak, runner.config

    def load():
        meter = speed.SpeedMeter(sampling=False)
        with meter.running():
            start = perf_counter()
            wxleak.load_config(config_path)
            end = perf_counter()
        return meter.reference(start, end)

    load_s = [load() for _ in range(LOAD_CONFIG_REPEATS)]
    plain, traced, per_scenario, iterations_match = [], [], [], []
    last_tracer = None

    def run_one(i):
        nonlocal last_tracer
        # Pairs alternate which side runs first, so warm-up and drift
        # fall on both sides of the overhead alike.
        tracer = tracing.Tracer() if (i + i // 2) % 2 else None
        meter = speed.SpeedMeter()
        result = runner.scenario(meter, tracer)
        if result is None:
            return
        if tracer is None:
            plain.append(result[0])
            return
        traced.append(result[0])
        layers = layer_metrics(tracer, config.grid_size, meter.reference)
        per_scenario.append(layers)
        iterations_match.append(
            layers["assim.iterations"] == tracer.counts["analysis_result.iterations"]
        )
        last_tracer = tracer

    # Whole untraced/traced pairs, at least two, so counts can be compared.
    closed_loop(args.seconds, 2, lambda i: (run_one(2 * i), run_one(2 * i + 1)))
    if not plain or not traced:
        fail("no traced and untraced scenario pair completed")

    first = per_scenario[0]
    counts = {name: value for name, value in first.items() if isinstance(value, int)}
    metrics = dict(counts)
    for name in first:
        if name not in counts:
            metrics[name] = statistics.median(m[name] for m in per_scenario)
    metrics["experiment.load_config_s"] = statistics.median(load_s)
    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0

    n_steps = int(round(config.forecast_length / config.model_params.dt))
    self_tests = {
        "iterations_match_analysis_results": all(iterations_match),
        "steps_match_config": first["model.steps"] == config.spinup_steps + cases * n_steps,
        "calls_match_config": first["model.integrate_calls"] == cases
        and first["assim.analyses"] == cases,
        "counts_repeat_exactly": all(
            {name: m[name] for name in counts} == counts for m in per_scenario
        ),
        "traced_bytes_equal_untraced": runner.traced_bytes_match,
    }
    for name, ok in self_tests.items():
        if not ok:
            print(f"bench: trace self-test failed: {name}", file=sys.stderr)
    detail = {
        "untraced_s": plain,
        "traced_s": traced,
        "kernel_s": runner.kernel_s,
        "self_tests": self_tests,
        "failed_frac": runner.failed / runner.attempted,
    }
    spans_path = os.path.join(OUT_DIR, "results", f"{args.workload}-seed{args.seed}-spans.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(last_tracer.dump(), fh)
    notes = {"trace.overhead_frac": f"(traced {traced_s:.4f} s vs untraced {plain_s:.4f} s)"}
    return metrics, detail, notes, all(self_tests.values())


def main() -> None:
    args = parse_args()
    for path in ("BENCHMARK.json", "src/wxleak/__init__.py", "configs/default.yaml"):
        if not os.path.isfile(path):
            fail(f"{path} not found: run from the root of a wxleak checkout")
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import numpy
    import wxleak

    if not os.path.abspath(wxleak.__file__).startswith(src + os.sep):
        fail(f"imported wxleak from {wxleak.__file__}, not from {src}")
    import checks
    import tracing

    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in WORKLOADS or args.workload not in whys:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(whys)}")
    workload = WORKLOADS[args.workload]

    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    config_path = os.path.join(OUT_DIR, f"{stem}.yaml")
    raw = workload.write_config(args.seed, config_path)
    config = wxleak.load_config(config_path)
    cases = (len(config.leakage_levels) + 1) * config.ensemble_size
    csv_path = os.path.join(OUT_DIR, f"{stem}-trace{args.trace}.csv")
    runner = Runner(wxleak, checks, workload, args.seed, config, csv_path)

    self_tests_ok = True
    if args.trace:
        metrics, detail, notes, self_tests_ok = per_layer(runner, args, config_path, cases, tracing)
        wanted = spec["per_layer"]
    else:
        metrics, detail, notes = end_to_end(runner, args, config_path, cases)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"metrics not produced: {missing}")
    printed = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in printed.items():
        print(f"{name} = {entry['value']!r} {entry['unit']} {notes.get(name, '')}".rstrip())
    print(f"failed_frac = {detail['failed_frac']!r} fraction ({runner.failed} of {runner.attempted})")

    check = runner.last_check or {}
    print(
        f"reference: {'stored' if check.get('has_reference') else 'none for this seed'}; "
        f"report bytes identical to reference: {check.get('bytes_identical_to_reference')}"
    )
    correct = runner.failed == 0 and self_tests_ok
    record = {
        "workload": workload.name,
        "why": whys[workload.name],
        "moves": workload.moves,
        "rtol": workload.rtol,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": raw,
        "config_hash": config.config_hash,
        "provenance": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": 1,
            "git_commit": git_commit(),
            "report_sha256": {workload.name: check.get("sha256")},
        },
        "check": {k: v for k, v in check.items() if k != "sha256"},
        "detail": detail,
        "metrics": printed,
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
    }
    with open(os.path.join(OUT_DIR, "results", f"{stem}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": printed,
    }))


if __name__ == "__main__":
    main()
