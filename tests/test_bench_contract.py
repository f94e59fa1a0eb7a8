"""The benchmark's own output checks pass on every workload, at its smoke-test sizes.

Each workload of ``bench/workloads.py`` runs once through ``cli.main`` with
the shrunken sizes of ``bench/smoke.py`` (``TINY``), and ``checks.check_run``
must find no problem, against ``bench/reference.json`` and the exit codes of
``checks.EXPECTED_RC``.  This catches a change that breaks the benchmark's
use of the API or of the CSV formats before the benchmark runs.  ``bench/``
is only read: its modules are loaded from their files, and ``TINY`` is read
from the smoke script's source, which is not imported, since it sets up the
benchmark's own process on import.
"""

import ast
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from tomolab import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny() -> dict:
    tree = ast.parse((BENCH / "smoke.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TINY"])


checks, workloads = _load("checks"), _load("workloads")
TINY = _tiny()
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="ascii"))["workloads"]


def test_every_workload_has_tiny_sizes():
    assert sorted(TINY) == sorted(workloads.WORKLOADS) == sorted(checks.EXPECTED_RC)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_benchmark_checks_pass(workload, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(workloads.config_text(workload, workloads.DEFAULT_SEED, TINY[workload]),
                      encoding="ascii")
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(config), "--out", str(out), "--threads", "1"])
    capsys.readouterr()
    problem, _ = checks.check_run(workload, cli.load_config(str(config)), str(out), rc,
                                  REFERENCE.get(workload, {}))
    assert problem is None


def test_check_state_is_the_run_state():
    # with no g_file the sampler and the runner both take bases.default_g_vectors(d)
    cfg = cli.ExperimentConfig(task="simulate", basis_kind="pauli", d=8,
                               state_class="low_rank_sparse_vec", r=2, gamma=2)
    basis = cli._build_basis(cfg)
    want = cli._build_state(cfg, basis).matrix
    assert checks.build_state(cfg, basis).matrix.tobytes() == want.tobytes()
