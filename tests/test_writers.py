"""One writer per file format: only the module that owns a format writes files.

Record tables are CSV, written by ``measurement``'s table layer, which only the
record modules ``measurement`` and ``regression`` use; reports are JSON, written
by ``diagnostics``; the matrix text format is written by ``hermitian``.  Every
other module hands its payload to one of them.

Inputs are read by their owners only: ``cli`` reads the config and the
``g_file`` axes, ``hermitian`` the matrix text.  No module reads a record table
back (a run's config and seed rebuild it) or imports ``csv``.
"""

import ast
from pathlib import Path

import tomolab

WRITERS = {"measurement", "diagnostics", "hermitian"}
WRITE_METHODS = {"write_text", "write_bytes", "savetxt", "savez", "tofile"}
READERS = {"cli", "hermitian"}
READ_METHODS = {"read_text", "read_bytes", "loadtxt", "genfromtxt", "load", "fromfile"}
TABLE_LAYER = {"_write_table", "_blocks", "_record_blocks"}
RECORD_MODULES = {"measurement", "regression"}


def _mode_args(node) -> list:
    """The mode (or os.open flags) arguments of an open call, None for any other call.

    ``open(p, mode)``, ``io.open(p, mode)`` and ``os.open(p, flags)`` take it
    second, ``Path(p).open(mode)`` first."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        positional = node.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        module = isinstance(func.value, ast.Name) and func.value.id in ("io", "os")
        positional = node.args[1:2] if module else node.args[:1]
    else:
        return None
    return positional + [kw.value for kw in node.keywords if kw.arg in ("mode", "flags")]


def _writes_files(tree) -> list:
    """Line numbers of the calls in ``tree`` that open a file for writing.

    A mode that is not a string constant counts as a write."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and node.func.attr in WRITE_METHODS:
            lines.append(node.lineno)
            continue
        modes = _mode_args(node)
        if modes and any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                         for m in modes):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_format_owners_write_files():
    package = Path(tomolab.__file__).parent
    offenders = {}
    for path in sorted(package.glob("*.py")):
        lines = _writes_files(ast.parse(path.read_text(), str(path)))
        if lines and path.stem not in WRITERS:
            offenders[path.stem] = lines
    assert offenders == {}


def test_guard_sees_a_write():
    tree = ast.parse('with open(p, "w") as fh:\n    pass\nopen(q)\nopen(r, mode="a")\n')
    assert _writes_files(tree) == [1, 4]


def test_guard_sees_an_open_method_or_module_function():
    source = "\n".join([
        'Path(p).open("w")',
        'Path(p).open()',
        'Path(p).open(mode="r")',
        'io.open(p, "wb")',
        'io.open(p)',
        'os.open(p, os.O_WRONLY | os.O_CREAT)',
        'fh.open("a+")',
    ])
    assert _writes_files(ast.parse(source)) == [1, 4, 6, 7]


def _reads_files(tree) -> list:
    """Line numbers of the calls in ``tree`` that open a file for reading.

    Only a mode that is a string constant naming a write (w, a or x) without
    ``+`` does not read; no mode reads."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and node.func.attr in READ_METHODS:
            lines.append(node.lineno)
            continue
        modes = _mode_args(node)
        if modes is not None and not any(isinstance(m, ast.Constant) and "+" not in str(m.value)
                                         and set(str(m.value)) & set("wax") for m in modes):
            lines.append(node.lineno)
    return sorted(lines)


def _csv_imports(tree) -> list:
    """Line numbers of the imports of ``csv`` in ``tree``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)
                  or isinstance(node, ast.ImportFrom) and node.module == "csv")


def test_only_input_owners_read_files():
    package = Path(tomolab.__file__).parent
    offenders = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = _reads_files(tree)
        if lines and path.stem not in READERS:
            offenders[path.stem] = lines
        if _csv_imports(tree):
            offenders[path.stem + " imports csv"] = _csv_imports(tree)
    assert offenders == {}


def test_guard_sees_a_read():
    tree = ast.parse('with open(p) as fh:\n    pass\nopen(q, "w")\nopen(r, mode="rb")\n'
                     'open(s, "a+")\nnp.loadtxt(t)\nPath(u).read_text()\n')
    assert _reads_files(tree) == [1, 4, 5, 6, 7]


def test_guard_sees_a_csv_import():
    tree = ast.parse("import csv\nimport json\nfrom csv import reader\nimport os, csv\n")
    assert _csv_imports(tree) == [1, 3, 4]


def _table_layer_reads(tree) -> list:
    """Line numbers in ``tree`` that import or read a name of ``TABLE_LAYER``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if TABLE_LAYER & set(names):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_record_modules_write_tables():
    package = Path(tomolab.__file__).parent
    offenders = {}
    for path in sorted(package.glob("*.py")):
        lines = _table_layer_reads(ast.parse(path.read_text(), str(path)))
        if lines and path.stem not in RECORD_MODULES:
            offenders[path.stem] = lines
    assert offenders == {}


def test_table_guard_sees_an_import_a_name_and_an_attribute():
    source = "\n".join([
        "from .measurement import TomographyDataset, _blocks",
        "_write_table(p, None, rows)",
        "measurement._record_blocks(basis, k, t, row)",
        "write_table(p)",
        "measurement.blocks",
    ])
    assert _table_layer_reads(ast.parse(source)) == [1, 2, 3]
