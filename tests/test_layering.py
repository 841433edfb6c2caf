"""Corridor words reach the trace kernels only through `CyclicWord.trace`.

So `traces` imports nothing of the package but its errors, and no module
converts a word into a trace word by any other name.
"""

import ast
import pathlib

import carpetloop

PACKAGE = pathlib.Path(carpetloop.__file__).parent
GONE = frozenset(("from_cyclic", "generator_keys", "_induce_candidates"))


def _package_imports(tree: ast.AST) -> set[str]:
    """The package modules a module imports, relative ones with their dots."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:
                found.update("." * node.level + a.name for a in node.names)
            elif node.level:
                found.add("." * node.level + node.module)
            elif node.module.split(".")[0] == "carpetloop":
                found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "carpetloop")
    return found


def _names(tree: ast.AST) -> set[str]:
    """Every identifier a module uses, defines or imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def test_traces_imports_only_errors():
    tree = ast.parse((PACKAGE / "traces.py").read_text())
    assert _package_imports(tree) == {".errors"}


def test_no_module_names_the_old_conversions():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = {}
    for p in modules:
        hits = _names(ast.parse(p.read_text())) & GONE
        if hits:
            offenders[p.name] = sorted(hits)
    assert offenders == {}


def test_guard_sees_imports_and_names():
    src = (
        "from .errors import CapExceeded\n"
        "from .words import CyclicWord\n"
        "from . import grid\n"
        "import carpetloop.decide\n"
        "from carpetloop.homotopy import build_cellulation\n"
        "import json\n"
        "def f(w):\n"
        "    return TraceWord.from_cyclic(w)\n"
    )
    tree = ast.parse(src)
    assert _package_imports(tree) == {
        ".errors", ".words", ".grid", "carpetloop.decide", "carpetloop.homotopy"
    }
    assert _names(tree) & GONE == {"from_cyclic"}
    assert _names(ast.parse("def generator_keys(self): pass")) & GONE == {"generator_keys"}
    assert _names(ast.parse("from .traces import _induce_candidates")) & GONE == {
        "_induce_candidates"
    }
