"""No public function that only the tests can reach.

Every public name of a module, that is every name it exports in ``__all__``
and every module-level def and class whose name does not start with an
underscore, is either used somewhere in the package other than its own
definition and its ``__all__`` entry, or named in the README's "Public API"
paragraph as deliberately part of the library's API.  The package's own
``__all__`` lists its modules, whose names are checked one by one.  Every name
that paragraph lists, and every family and function of the README's RNG
family table, is defined in the package, and every ``module.name(args)`` the
README quotes names the leading parameters of that function.
``bases.build_basis`` is the one
place that constructs an ``ObservableBasis``, as the README says.  The README's config block
lists exactly the (section, key) pairs the config loader reads, and its
"Distances" file-format entry exactly the fields of a ``distances.json`` row.
"""

import ast
import builtins
import configparser
import importlib
import inspect
import json
import re
from pathlib import Path

import tomolab
from tomolab import bases, cli

PACKAGE = Path(tomolab.__file__).parent
README = PACKAGE.parents[1] / "README.md"


def _sources() -> dict:
    """Source text of every module of the package, the package itself excepted."""
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
            if path.stem != "__init__"}


def _exports(tree) -> list:
    """The string entries of a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _public(tree) -> list:
    """The names a module exports, then its other public module-level defs and classes."""
    defs = [top.name for top in tree.body if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and not top.name.startswith("_")]
    return list(dict.fromkeys(_exports(tree) + defs))


def _reads(node) -> set:
    """Names read under ``node``: loaded names and attribute names.  A
    definition, an assignment target, an import and a string are not reads."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
    return refs


def _defines(node):
    """The name a top-level statement defines, if it is a def, a class or an
    assignment to one name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return targets[0].id if len(targets) == 1 and isinstance(targets[0], ast.Name) else None


def _listed_public_api(text: str) -> set:
    """The names quoted in the README paragraph that begins "Public API." and
    runs to the next paragraph that is not a list item; ``module.name`` gives
    ``name``."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("Public API."))
    end = start + 1
    while end < len(lines) and not (
            lines[end - 1] == "" and lines[end] and not lines[end].startswith(("*", " "))):
        end += 1
    return set(re.findall(r"`(?:\w+\.)?(\w+)", "\n".join(lines[start:end])))


def _unreached(sources: dict, listed: set) -> list:
    """The public names, as ``module.name``, that nothing in ``sources``
    reads and ``listed`` does not hold."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reads = [((mod, _defines(top)), _reads(top)) for mod, tree in trees.items()
             for top in tree.body]
    return sorted(f"{mod}.{name}" for mod, tree in trees.items() for name in _public(tree)
                  if name not in listed
                  and not any(name in names for where, names in reads if where != (mod, name)))


def _rng_table(text: str) -> list:
    """(family, function) of each row of the README's RNG family table."""
    return re.findall(r"^\| \d+ \| `(\w+)` \(`(\w+)`\)", text, re.M)


def _undefined(names: set, sources: dict) -> list:
    """The ``names``, builtins aside, that no module of ``sources`` defines at
    module level as a def, a class or an assignment target."""
    defined = set()
    for src in sources.values():
        for top in ast.parse(src).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.add(top.name)
            targets = top.targets if isinstance(top, ast.Assign) else [getattr(top, "target", None)]
            defined.update(sub.id for target in targets if target is not None
                           for sub in ast.walk(target) if isinstance(sub, ast.Name))
    return sorted(name for name in names if name not in defined and not hasattr(builtins, name))


def _quoted_calls(text: str) -> list:
    """(module, name, args) of every ``module.name(args)`` code span of ``text``
    whose module is one of the package's; a span may run over lines."""
    return [(mod, name, [arg.strip() for arg in args.split(",") if arg.strip()])
            for mod, name, args in re.findall(r"`(\w+)\.(\w+)\(([^`]*)\)`", text)
            if mod in _sources()]


def _signature_mismatches(calls) -> list:
    """The quoted calls, as ``module.name(args)``, whose args are not the
    function's leading parameter names."""
    bad = []
    for mod, name, args in calls:
        params = list(inspect.signature(getattr(importlib.import_module(f"tomolab.{mod}"),
                                                name)).parameters)
        if params[:len(args)] != args:
            bad.append(f"{mod}.{name}({', '.join(args)})")
    return bad


# the only public functions of the config runner, and the classes it exports besides
SHELL_FUNCTIONS = {"load_config", "run", "main"}
SHELL_CLASSES = {"ExperimentConfig"}


def _shell_extras(src: str) -> list:
    """The public functions ``src`` defines, and the names its ``__all__``
    lists, beyond those of a thin config shell."""
    tree = ast.parse(src)
    defs = {top.name for top in tree.body
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")}
    return sorted((defs - SHELL_FUNCTIONS) | (set(_exports(tree)) - SHELL_FUNCTIONS - SHELL_CLASSES))


def test_every_export_is_used_or_listed():
    assert _unreached(_sources(), _listed_public_api(README.read_text())) == []


def test_guard_sees_an_unused_export():
    sources = {
        "a": '__all__ = ["used", "listed", "unused"]\n'
             'def used(): pass\ndef listed(): pass\ndef unused(): return unused\n',
        "b": "from .a import used, unused\nx = used()\n",
    }
    # neither the import nor a read inside the name's own definition counts
    assert _unreached(sources, {"listed"}) == ["a.unused"]
    sources["b"] += "unused()\n"
    assert _unreached(sources, set()) == ["a.listed"]


def test_guard_sees_a_public_def_outside_all():
    sources = {
        "a": '__all__ = ["used"]\n'
             'def used(): pass\ndef hidden(): pass\nclass Hidden: pass\ndef _private(): pass\n',
        "b": "from .a import used\nx = used()\n",
    }
    assert _unreached(sources, set()) == ["a.Hidden", "a.hidden"]
    sources["b"] += "Hidden()\n"
    assert _unreached(sources, {"hidden"}) == []


def test_readme_paragraph_is_found():
    listed = _listed_public_api(README.read_text())
    assert {"kernel_K0", "kernel_K1", "conditional_tv_bound"} <= listed
    # the paragraph after the list is not part of it
    assert "estimator_transfer_sweep" not in listed


def test_readme_names_are_defined():
    text = README.read_text()
    rows = _rng_table(text)
    assert [family for family, _ in rows] == ["TOMOGRAPHY", "COARSE", "FINE", "TRANSLATE",
                                              "TRANSFER", "TV"]
    named = _listed_public_api(text) | {name for row in rows for name in row}
    assert _undefined(named, _sources()) == []


def test_guard_sees_a_stale_readme_name():
    sources = {"a": "X, Y = range(2)\nZ: int = 3\ndef f(): pass\nclass C: pass\n",
               "b": "def g():\n    local = 1\n"}
    assert _undefined({"X", "Y", "Z", "f", "C", "ValueError", "local", "gone"}, sources) == [
        "gone", "local"]


def test_readme_quotes_match_signatures():
    calls = _quoted_calls(README.read_text())
    assert ("diagnostics", "deficiency_bound", ["n", "m", "gamma", "zeta", "constant"]) in calls
    assert _signature_mismatches(calls) == []


def test_guard_sees_a_stale_signature():
    # a quote without a package module is not checked; a leading subset of the
    # parameters passes
    text = ("`diagnostics.deficiency_bound(n, m,\n  p, kappa)` and `kernel_K1(values)`, "
            "`equivalence.kernel_K0(counts)`, `bit_generator.jumped()`")
    calls = _quoted_calls(text)
    assert [(mod, name) for mod, name, _ in calls] == [
        ("diagnostics", "deficiency_bound"), ("equivalence", "kernel_K0")]
    assert _signature_mismatches(calls) == ["diagnostics.deficiency_bound(n, m, p, kappa)"]


def test_cli_is_a_thin_shell():
    assert _shell_extras(_sources()["cli"]) == []


def test_guard_sees_domain_logic_in_the_shell():
    src = ('__all__ = ["ExperimentConfig", "run", "corollary_suite", "Helper"]\n'
           "class ExperimentConfig: pass\nclass Helper: pass\n"
           "def run(): pass\ndef main(): pass\ndef _task(): pass\n"
           "def corollary_suite(): pass\ndef estimator_transfer(): pass\n")
    assert _shell_extras(src) == ["Helper", "corollary_suite", "estimator_transfer"]


def test_one_basis_constructor():
    callers = set()
    for mod, src in _sources().items():
        for top in ast.parse(src).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "ObservableBasis" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.add((mod, getattr(top, "name", "<module>")))
    assert callers == {("bases", "build_basis")}
    assert re.search(r"`bases\.build_basis\(kind, d, g_vectors\)` is the one\s+constructor of an\s+"
                     r"`ObservableBasis`", README.read_text())


def test_one_integer_rule():
    homes = {mod for mod, src in _sources().items() for node in ast.walk(ast.parse(src))
             if isinstance(node, ast.FunctionDef) and node.name == "_checked_integer"}
    assert homes == {"errors"}


def _readme_config_keys(text: str) -> set:
    """(section, key) of every key of the README's ``ini`` block, parsed as the
    config loader parses a file."""
    block = re.search(r"^```ini\n(.*?)^```", text, re.M | re.S).group(1)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string(block)
    return {(section, key) for section in parser.sections() for key in parser.options(section)}


def test_readme_config_block_lists_the_loader_keys():
    assert _readme_config_keys(README.read_text()) == set().union(*cli._KEYS.values())
    # the [basis] kind comment lists exactly the built-in kinds, in their order
    kinds = re.search(r"^kind = \w+ +# (.*)$", README.read_text(), re.M).group(1)
    assert tuple(k.strip() for k in kinds.split("|")) == bases._KINDS


def test_readme_block_parser_drops_comments():
    text = ("```ini\n[run]\ntask = zeta   # a task\n              # more on the task\n\n"
            "[zeta]        # zeta task\nwitnesses = cor2_line\n```\n")
    assert _readme_config_keys(text) == {("run", "task"), ("zeta", "witnesses")}


def _readme_distance_fields(text: str) -> set:
    """The names quoted in the README's "Distances" file-format entry, up to the
    next entry or blank line; a quote holding anything but a name is skipped."""
    entry = re.search(r"^\* \*\*Distances\*\*:(.*?)(?=^\* |^$)", text, re.M | re.S).group(1)
    return set(re.findall(r"`([a-z_]+)`", entry))


def test_readme_lists_the_distances_row_fields(tmp_path):
    cfg = cli.ExperimentConfig(task="distances", thetas=[[0.3, 0.7]], m_grid=[16],
                               tv_samples=100, out_dir=str(tmp_path))
    cli.run(cfg)
    (row,) = json.loads((tmp_path / "distances.json").read_text())["grid"]
    assert _readme_distance_fields(README.read_text()) == set(row)


def test_readme_distance_parser_stops_at_the_entry():
    text = ("* **Matrix**: `d` rows\n* **Distances**: `distances.json` holds `{\"grid\": rows}`,\n"
            "  with `theta` and\n  `tv`.\n* **Manifest**: `task`\n")
    assert _readme_distance_fields(text) == {"theta", "tv"}
