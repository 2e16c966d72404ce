"""The qgraph modules import one another in layers: no cycle, no deferred
sibling import; beyond one another they import only numpy and the standard
library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qgraph"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _siblings(node) -> list[str]:
    """The sibling modules an import statement reads from, relative or absolute."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:
            names = [node.module] if node.module else [a.name for a in node.names]
        elif node.level == 0 and (node.module or "").startswith("qgraph"):
            module = node.module.partition(".")[2]
            names = [module] if module else [a.name for a in node.names]
        else:
            names = []
    elif isinstance(node, ast.Import):
        names = [a.name.partition(".")[2] for a in node.names if a.name.startswith("qgraph.")]
    else:
        names = []
    return [name for name in names if name in MODULES]


def _parse(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def test_no_sibling_import_inside_a_function():
    deferred = [
        (name, sibling, node.lineno)
        for name in MODULES
        for func in ast.walk(_parse(name))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        for sibling in _siblings(node)
    ]
    assert deferred == []


def test_sibling_imports_have_no_cycle():
    imports = {
        name: {s for node in ast.walk(_parse(name)) for s in _siblings(node)} - {name}
        for name in MODULES
    }
    # peel off modules whose imports are all peeled; what stays holds a cycle
    peeled: set[str] = set()
    while True:
        ready = {name for name, deps in imports.items() if name not in peeled and deps <= peeled}
        if not ready:
            break
        peeled |= ready
    assert {name: sorted(imports[name]) for name in MODULES if name not in peeled} == {}


def _packages(node) -> list[str]:
    """The top-level packages an absolute import statement reads from."""
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.partition(".")[0]]
    if isinstance(node, ast.Import):
        return [a.name.partition(".")[0] for a in node.names]
    return []


def test_runtime_imports_only_numpy_and_the_standard_library():
    # numpy is the one runtime dependency pyproject.toml declares; scipy and
    # the other test dependencies stay out of the package, deferred imports
    # included
    outside = [
        (name, package, node.lineno)
        for name in ["__init__", *MODULES]
        for node in ast.walk(_parse(name))
        for package in _packages(node)
        if package not in sys.stdlib_module_names and package not in ("numpy", "qgraph")
    ]
    assert outside == []
