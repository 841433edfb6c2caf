"""Tables derived from a space live on the space: no module-level caches."""

import ast
import pathlib

import carpetloop

PACKAGE = pathlib.Path(carpetloop.__file__).parent
CACHES = frozenset(("lru_cache", "cache"))
# Keyed by a level alone, not by a space, so nothing it holds outlives a space.
ALLOWED = frozenset(("_eligible_at",))


def _cache_uses(tree: ast.AST) -> list[str]:
    """Each function a module wraps in functools' lru_cache or cache, by name.

    A wrapper applied by a call rather than as a decorator is reported by
    its line.
    """
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in CACHES}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}

    def is_cache(expr: ast.AST) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in names
        return (
            isinstance(expr, ast.Attribute)
            and expr.attr in CACHES
            and isinstance(expr.value, ast.Name)
            and expr.value.id in modules
        )

    found, decorators = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in node.decorator_list:
                decorators.add(id(d))
                if is_cache(d.func if isinstance(d, ast.Call) else d):
                    found.append(node.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in decorators and is_cache(node.func):
            found.append(f"call at line {node.lineno}")
    return found


def test_no_module_level_caches():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = {}
    for p in modules:
        hits = [h for h in _cache_uses(ast.parse(p.read_text())) if h not in ALLOWED]
        if hits:
            offenders[p.name] = hits
    assert offenders == {}


def test_guard_sees_caches():
    src = (
        "import functools\n"
        "import functools as ft\n"
        "from functools import lru_cache, cache as memo, wraps\n"
        "@lru_cache(maxsize=None)\ndef a(): pass\n"
        "@functools.cache\ndef b(): pass\n"
        "@memo\ndef c(): pass\n"
        "@ft.lru_cache\ndef d(): pass\n"
        "@wraps(a)\ndef e(): pass\n"
        "f = lru_cache()(e)\n"
        "g = functools.cache(e)\n"
        "@lru_cache\ndef _eligible_at(i): pass\n"
    )
    assert sorted(_cache_uses(ast.parse(src))) == sorted([
        "a", "b", "c", "d", "_eligible_at", "call at line 14", "call at line 15",
    ])
