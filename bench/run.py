#!/usr/bin/env python3
"""tomolab benchmark: closed-loop ``tomolab run`` workloads, measured from outside.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the program is taken from the
checkout's ``src/`` (nothing is installed).  Each ``tomolab run`` executes in
a fresh interpreter, one at a time, with ``--threads 1`` and the BLAS pools
pinned to one thread, so its peak RSS is its own and a run that exceeds
RUN_TIMEOUT_S can be stopped and counted as failed.  Runs repeat until
``--seconds`` have passed (at least one run).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median run time),
``setup_s`` (median of fresh-interpreter set-ups, one after each run and at
least SETUP_REPEATS) and ``peak_rss_mb`` (median peak RSS).  The host's speed
drifts, so both times are given at a fixed reference speed: the reference
kernel of calibrate.py is timed in this process before every child process
and once at the end, and each time is scaled by REF_KERNEL_S over the
median kernel time; the measured times are printed as ``wall_raw_s`` and
``setup_raw_s``.  ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics that
BENCHMARK.json lists, including ``trace.overhead_frac``.
Every run's outputs are checked (see checks.py).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every metric by name with its unit,
the workload-specific ones (``records_per_s``, ``hellinger_err_max``,
``failed_frac``), the wall-time tail, the ``artifacts_identical`` diagnostic
and the machine and provenance block.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))

from workloads import DEFAULT_SEED, PINNED, WORKLOADS, config_text  # noqa: E402

# the reference kernel runs in this process, so pin its pools like the children's
os.environ.update({var: "1" for var in PINNED})
import calibrate  # noqa: E402

RUN_TIMEOUT_S = 120.0      # one run
DEADLINE_S = 160.0         # the whole invocation, which must end within 180 s
SETUP_TIMEOUT_S = 60.0
SETUP_REPEATS = 5
# median time of calibrate.kernel_s() on the 2-core 2 GHz Xeon host the
# benchmark was defined on, in its quiet state: wall_s and setup_s are
# measured seconds scaled to that speed
REF_KERNEL_S = 0.08


class Bench:
    """One invocation: a workload, a seed, a time budget."""

    def __init__(self, workload, seed, seconds, overrides=None):
        self.workload = workload
        self.seconds = seconds
        self.dir = WORK / workload
        WORK.mkdir(exist_ok=True)
        # two invocations on one workload would delete each other's outputs
        self._lock = open(WORK / f"{workload}.lock", "w", encoding="ascii")
        try:
            fcntl.flock(self._lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            self._lock.close()
            raise RuntimeError(f"another benchmark is running {workload} in this checkout")
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.cfg"
        self.config.write_text(config_text(workload, seed, overrides), encoding="ascii")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        **{var: "1" for var in PINNED})
        self.env.pop("TOMOLAB_SEED", None)
        self.runs = []
        self.setups = []
        self.kernels = []
        self.deadline = time.perf_counter() + DEADLINE_S

    def _worker(self, args, timeout):
        """Run worker.py; returns (parsed result or None, error text or None)."""
        self.kernels.append(calibrate.kernel_s())
        cmd = [sys.executable, str(BENCH / "worker.py")] + [str(a) for a in args]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, "timeout"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return None, f"worker exit {proc.returncode}: {tail[0]}"
        return json.loads(lines[-1]), None

    def setup_once(self):
        res, err = self._worker(["setup", self.config], SETUP_TIMEOUT_S)
        if err:
            raise RuntimeError(f"set-up failed: {err}")
        _require_src(res)
        self.setups.append(res["setup_s"])

    def run_once(self, traced):
        run_id = len(self.runs)
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        args = ["run", self.workload, self.config, out, BENCH / "reference.json"]
        if traced:
            args += [self.dir / f"spans-{run_id}.csv", run_id]
        started = time.perf_counter()
        timeout = min(RUN_TIMEOUT_S, self.deadline - started)
        res, err = self._worker(args, timeout)
        if err == "timeout":
            res = {"wall_s": timeout, "problem": f"timed out after {timeout:.1f} s",
                   "timed_out": True}
        elif err:
            res = {"problem": err}
        else:
            _require_src(res)
        res["traced"] = traced
        self.runs.append(res)

    def measure(self, trace):
        """Runs until the time is up; untraced, set-up samples follow each run
        so that they span the same stretch of time."""
        start = time.perf_counter()
        while time.perf_counter() < self.deadline:
            self.run_once(traced=False)
            if trace:
                self.run_once(traced=True)
            else:
                self.setup_once()
            if time.perf_counter() - start >= self.seconds:
                break
        while not trace and len(self.setups) < SETUP_REPEATS:
            self.setup_once()
        self.kernels.append(calibrate.kernel_s())


def _require_src(res):
    if not Path(res["tomolab_file"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"tomolab imported from {res['tomolab_file']}, not src/")


def _tail(samples):
    """The highest percentile with at least 10 samples beyond it, as a report line."""
    n = len(samples)
    if n < 11:
        return f"{n} samples, too few for a tail percentile (needs 11)"
    return f"p{100 * (n - 10) // n} = {sorted(samples)[n - 11]:.4f} s ({n} samples, 10 beyond)"


def machine_block(seed, versions):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "cpu": cpu, **versions,
            "threads": {"tomolab": 1, **{var: 1 for var in PINNED}},
            "seed": seed, "src_lines": src_lines}


def summarize(bench, trace):
    """(final JSON object, report lines)."""
    runs = bench.runs
    failed = [r for r in runs if r.get("problem")]
    # a timeout is a failure but not an incorrect output
    correct = not any(r.get("problem") and not r.get("timed_out") for r in runs)
    lines = [f"{len(runs)} runs, {len(failed)} failed"]
    lines += [f"  run {i}: {r['problem']}" for i, r in enumerate(runs) if r.get("problem")]
    clean = [r for r in runs if not r["traced"] and "peak_rss_mb" in r]
    traced = [r for r in runs if r["traced"] and "trace" in r]
    if not clean or (trace and not traced):
        raise RuntimeError("no run completed")
    walls = [r["wall_s"] for r in runs if not r["traced"] and "wall_s" in r]
    raw_wall = statistics.median(walls)
    speed = REF_KERNEL_S / statistics.median(bench.kernels)
    wall = raw_wall * speed
    report = {
        "failed_frac": (len(failed) / len(runs), "ratio"),
        "artifacts_identical": (clean[0].get("artifacts_identical"), "flag"),
    }
    if "hellinger_err_max" in clean[0]:
        report["hellinger_err_max"] = (clean[0]["hellinger_err_max"], "1")
    if "records" in clean[0]:
        report["records_per_s"] = (clean[0]["records"] / wall, "1/s")
    metrics = {}
    if trace:
        # "<span>.<calls|s|rows>", "<layer>.self_s" and "trace.overhead_frac"
        for spec in SPEC["per_layer"]:
            name = spec["name"]
            span, field = name.rsplit(".", 1)
            if name == "trace.overhead_frac":
                value = (statistics.median(r["wall_s"] for r in traced) - raw_wall) / raw_wall
            elif field == "self_s":
                value = statistics.median(r["trace"]["self_s"][span] for r in traced)
            else:   # counts stay whole numbers
                pick = statistics.median if field == "s" else statistics.median_low
                value = pick(r["trace"]["functions"].get(span, {}).get(field, 0) for r in traced)
            metrics[name] = {"value": value, "unit": spec["unit"]}
    else:
        metrics["wall_s"] = {"value": wall, "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(bench.setups) * speed, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": statistics.median(r["peak_rss_mb"] for r in clean),
                                  "unit": "MB"}
        report["wall_raw_s"] = (raw_wall, "s")
        report["setup_raw_s"] = (statistics.median(bench.setups), "s")
        lines.append(f"wall_raw_s samples: {', '.join(f'{w:.4f}' for w in walls)}")
        lines.append(f"wall_raw_s tail: {_tail(walls)}")
        lines.append(f"setup_raw_s samples: {', '.join(f'{s:.4f}' for s in bench.setups)}")
    report["kernel_s"] = (statistics.median(bench.kernels), "s")
    lines.append(f"kernel_s samples: {', '.join(f'{k:.4f}' for k in bench.kernels)}")
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']!r} {m['unit']}")
    for name, (value, unit) in report.items():
        lines.append(f"{name} {json.dumps(value)} {unit}")
    result = {"correct": correct, "attempted": len(runs), "failed": len(failed),
              "metrics": metrics}
    return result, lines


def main(argv=None, overrides=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tomolab" / "cli.py").is_file():
        print(f"no tomolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        bench = Bench(args.workload, args.seed, args.seconds, overrides)
        bench.measure(bool(args.trace))
        result, lines = summarize(bench, bool(args.trace))
        versions = next(r["versions"] for r in bench.runs if "versions" in r)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("machine " + json.dumps(machine_block(args.seed, versions), sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
