#!/usr/bin/env python3
"""Write the stored reference reports the benchmark checks its runs against.

Run from the repository root, at a commit whose reports are known good:

    python3 bench/make_references.py            # seeds 0 to 20, every workload
    python3 bench/make_references.py 7 101      # only these seeds

Each report goes to ``bench/reference/<workload>/seed-<n>.csv``, produced
the way the benchmark produces its own: generated YAML, ``load_config``,
``run_scenario``, ``emit_csv``. Regenerating them is a deliberate change of
what the benchmark counts as correct.
"""

import os
import sys

sys.path.insert(0, os.path.abspath("src"))

import wxleak
from checks import reference_path
from workloads import WORKLOADS

DEFAULT_SEEDS = range(0, 21)


def main() -> None:
    seeds = [int(arg) for arg in sys.argv[1:]] or list(DEFAULT_SEEDS)
    os.makedirs(".bench_run", exist_ok=True)
    for workload in WORKLOADS.values():
        for seed in seeds:
            out = reference_path(workload.name, seed)
            os.makedirs(os.path.dirname(out), exist_ok=True)
            config_path = os.path.join(".bench_run", f"{workload.name}-seed{seed}.yaml")
            workload.write_config(seed, config_path)
            report = wxleak.run_scenario(wxleak.load_config(config_path))
            wxleak.emit_csv(report, out)
            print(f"{workload.name} seed {seed}: converged "
                  f"{all(row.converged for row in report.rows)}")


if __name__ == "__main__":
    main()
