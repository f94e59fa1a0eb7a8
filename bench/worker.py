"""One measurement in a fresh interpreter; prints one JSON object as its last line.

    worker.py setup <config>
        time importing tomolab.cli, loading the config and building its basis
        and state with the public builders.
    worker.py run <workload> <config> <out> <reference.json> [<spans.csv> <run id>]
        time one ``tomolab run`` (``cli.main``) and read the process's peak
        RSS, then check the outputs.  With a spans path the run is traced, its
        spans are written there and the per-layer summary is reported.

The parent (run.py) sets PYTHONPATH to the checkout's ``src`` and pins the
BLAS pools to one thread.
"""

import contextlib
import io
import json
import resource
import sys
import time


def _setup(config):
    start = time.perf_counter()
    from tomolab import bases, cli
    import checks
    cfg = cli.load_config(config)
    basis = bases.build_basis(cfg.basis_kind, cfg.d)
    checks.build_state(cfg, basis)
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "tomolab_file": sys.modules["tomolab"].__file__}


def _peak_rss_mb():
    """Peak resident memory of this process's own address space (VmHWM).

    Not ru_maxrss: Linux keeps the parent's resident size at fork in it
    across exec, and the parent (run.py) holds numpy and scipy.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run(workload, config, out, reference_path, spans_path=None, run_id="0"):
    import checks
    import tracing
    from tomolab import cli

    with open(reference_path, encoding="ascii") as fh:
        reference = json.load(fh)["workloads"].get(workload, {})
    tracer = None
    if spans_path:
        tracer = tracing.Tracer(run_id=int(run_id))
        tracer.install()
    argv = ["run", "--config", config, "--out", out, "--threads", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        rc = cli.main(argv)
        wall_s = time.perf_counter() - start
    peak_rss_mb = _peak_rss_mb()
    result = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "rc": rc,
              "tomolab_file": sys.modules["tomolab"].__file__,
              "versions": {"python": sys.version.split()[0],
                           "numpy": sys.modules["numpy"].__version__,
                           "scipy": sys.modules["scipy"].__version__}}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(spans_path)
        result["trace"] = tracer.summary()
    cfg = cli.load_config(config)
    problem, facts = checks.check_run(workload, cfg, out, rc, reference)
    result.update(facts)
    result["problem"] = problem
    return result


def main(argv):
    if argv[0] == "setup":
        result = _setup(argv[1])
    else:
        result = _run(*argv[1:])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
