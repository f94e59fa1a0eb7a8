"""Start-up cost: what importing the package and one run load.

``src/`` reads scipy only for the manifest's version string, so importing
``tomolab.cli`` loads no ``scipy.special`` (0.29 s of a 0.40 s import, with
``numpy.f2py``).  The numpy subpackages a run uses (``numpy.random``,
``numpy.polynomial``) are imported with the modules that use them, so a run
itself first-imports no numpy or scipy module.  No run loads ``numpy.ma``
(``np.unique`` would import it; the distinct small counts come from
``np.bincount``), and a one-thread run maps its grid without importing
``concurrent.futures``.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tomolab
from test_cli import GOLDEN_CFG, TASK_SECTIONS, write_cfg
from tomolab import cli

PACKAGE = Path(tomolab.__file__).resolve().parent


def _fresh(code: str) -> dict:
    """The JSON line ``code`` prints last, run in a fresh interpreter that finds the package."""
    prelude = f"import json, sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n"
    done = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _scipy_imports(tree) -> list:
    """The scipy modules and names an ``import`` or ``from`` statement in ``tree`` names."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            names += [f"{node.module}.{a.name}" for a in node.names]
    return names


def test_import_loads_no_scipy_special():
    loaded = _fresh("import tomolab.cli\n"
                    "print(json.dumps(['scipy.special' in sys.modules, 'scipy' in sys.modules]))")
    assert loaded == [False, True]


@pytest.mark.parametrize("task", cli.TASKS)
def test_run_first_imports_no_numpy_or_scipy_module(tmp_path, task):
    config = write_cfg(tmp_path, GOLDEN_CFG.format(task=task, out=tmp_path / "out") + TASK_SECTIONS)
    got = _fresh(f"""
import contextlib, io
from tomolab import cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["run", "--config", {config!r}])
new = sorted(m for m in set(sys.modules) - before if m.split(".")[0] in ("numpy", "scipy"))
print(json.dumps({{"rc": rc, "new": new, "scipy": "scipy" in sys.modules}}))
""")
    assert got["rc"] == (1 if task == "corollaries" else 0)
    assert got["new"] == []
    # bench/worker.py reads sys.modules["scipy"].__version__ after every run
    assert got["scipy"]


def test_import_and_one_thread_runs_load_no_numpy_ma_or_thread_pool(tmp_path):
    configs = []
    for task in cli.TASKS:
        text = GOLDEN_CFG.format(task=task, out=tmp_path / task) + TASK_SECTIONS
        configs.append(str(write_cfg(tmp_path, text, f"{task}.cfg")))
    got = _fresh(f"""
import contextlib, io
from tomolab import cli
unwanted = ("numpy.ma", "concurrent.futures")
seen = {{"import": [m for m in unwanted if m in sys.modules]}}
for config in {configs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["run", "--config", config, "--threads", "1"])
    seen[config] = [rc] + [m for m in unwanted if m in sys.modules]
print(json.dumps(seen))
""")
    assert got.pop("import") == []
    assert got == {config: [1 if config.endswith("corollaries.cfg") else 0]
                   for config in configs}


def test_src_imports_scipy_only_for_the_manifest_version():
    found = {path.stem: _scipy_imports(ast.parse(path.read_text(), str(path)))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem: names for stem, names in found.items() if names} == {"cli": ["scipy"]}


def test_guard_sees_every_scipy_import():
    source = "\n".join([
        "import scipy",
        "import scipy.special as sp",
        "from scipy.special import gammaln",
        "from scipy import stats",
        "import numpy",
        "from . import scipy_like",
    ])
    assert _scipy_imports(ast.parse(source)) == [
        "scipy", "scipy.special", "scipy.special.gammaln", "scipy.stats"]
