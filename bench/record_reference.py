#!/usr/bin/env python3
"""Write bench/reference.json: what each workload produces at the default seed.

    python3 bench/record_reference.py

For every workload it records the config text, the sha256 of every artifact
the manifest lists, and the Hellinger value and error bar of every grid
point.  The benchmark checks Hellinger values against these points and
reports whether the artifacts are byte-identical (``artifacts_identical``).
Run it only at a commit whose outputs are the intended reference.
"""

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from workloads import DEFAULT_SEED, PINNED, WORKLOADS, config_text  # noqa: E402

os.environ.update({var: "1" for var in PINNED})   # before numpy is imported
os.environ.pop("TOMOLAB_SEED", None)

import checks  # noqa: E402
from tomolab import cli  # noqa: E402


def main():
    work = ROOT / ".bench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in WORKLOADS:
        config, out = work / f"{name}.cfg", work / name
        config.write_text(config_text(name, DEFAULT_SEED), encoding="ascii")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", "--config", str(config), "--out", str(out), "--threads", "1"])
        cfg = cli.load_config(config)
        _, facts = checks.collect(cfg, out)
        entry = {"config": cfg.raw_text, "artifacts": facts["artifacts"]}
        if "points" in facts:
            entry["points"] = facts["points"]
        problem, _ = checks.check_run(name, cfg, out, rc, entry)
        if problem:
            print(f"{name}: {problem}", file=sys.stderr)
            return 1
        record["workloads"][name] = entry
        print(f"{name}: recorded {len(entry['artifacts'])} artifacts")
    with open(BENCH / "reference.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
