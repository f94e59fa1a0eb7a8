#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at tiny sizes, both modes.

    python3 bench/smoke.py

Runs each workload once untraced and once traced with shrunken configs, and
checks that every run is correct and that every metric BENCHMARK.json names
is emitted with its unit, plus the workload-specific report lines.  Exits 0
when all of that holds.  Takes about half a minute.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import run

TINY = {
    "simulate-pauli16": {"run": {"n": "300", "m": "64"}},
    "distances-4cell": {"distances": {"m_grid": "16", "tv_samples": "2000"}},
    "scaling-lowdim": {"scaling": {"m_grid": "16,64,256,1024"}},
    "corollaries-d16": {"corollaries": {"samples": "4"}},
}
REPORTED = {
    "simulate-pauli16": ["failed_frac", "kernel_s", "records_per_s"],
    "distances-4cell": ["failed_frac", "kernel_s", "hellinger_err_max"],
    "scaling-lowdim": ["failed_frac", "kernel_s", "hellinger_err_max"],
    "corollaries-d16": ["failed_frac", "kernel_s"],
}


def main():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload, overrides in TINY.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = ["--workload", workload, "--seed", "7", "--seconds", "0",
                    "--trace", str(trace)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = run.main(argv, overrides=overrides)
            lines = out.getvalue().splitlines()
            where = f"{workload} trace {trace}"
            if rc != 0 or not lines:
                problems.append(f"{where}: exit {rc}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {lines[:-1]}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != expected:
                problems.append(f"{where}: metrics {sorted(emitted.items())}, "
                                f"expected {sorted(expected.items())}")
            printed = {line.split()[0] for line in lines[:-1] if line.strip()}
            missing = [name for name in list(expected) + REPORTED[workload]
                       if name not in printed]
            if missing:
                problems.append(f"{where}: not printed: {missing}")
            print(f"{where}: {len(emitted)} metrics, {result['attempted']} runs")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
