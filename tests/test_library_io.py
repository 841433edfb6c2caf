"""Library code writes no files: only the CLI opens files."""

import ast
import pathlib

import carpetloop

PACKAGE = pathlib.Path(carpetloop.__file__).parent


def _file_access(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == "tempfile"]
        elif isinstance(node, ast.ImportFrom) and node.module == "tempfile":
            found.append("from tempfile")
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "open":
                found.append(f"open() at line {node.lineno}")
            elif isinstance(f, ast.Attribute) and f.attr == "fdopen":
                found.append(f"fdopen() at line {node.lineno}")
    return found


def test_only_cli_touches_files():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = {}
    for p in modules:
        hits = _file_access(ast.parse(p.read_text()))
        if hits and p.name != "cli.py":
            offenders[p.name] = hits
    assert offenders == {}


def test_guard_sees_file_access():
    src = "import tempfile\nimport os\nopen('x')\nos.fdopen(3)\n"
    assert len(_file_access(ast.parse(src))) == 3
