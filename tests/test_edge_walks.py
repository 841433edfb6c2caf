"""The integer edge walks against the Fraction walks they replaced.

Validation and crossing words both walk a loop's edges over the grid of
one scale.  The walks put each edge over one common denominator and run
in integers; these tests compare the cell walk with the Fraction walk
that cut each edge at its crossings and read each piece's midpoint, and
guard that the walks build no rational per cell or crossing.
"""

import ast
import pathlib
import random
from fractions import Fraction as F

import pytest

import carpetloop
from carpetloop.grid import _segment_cells

from conftest import fraction_segment_cells

PACKAGE = pathlib.Path(carpetloop.__file__).parent


def _coord(n, rng):
    """A coordinate in [0, 1], on a scale-n line a third of the time."""
    r = rng.random()
    if r < 1 / 3:
        return F(rng.randint(0, n), n)
    if r < 1 / 2:
        return F(rng.randint(0, 9 * n), 9 * n)  # on a finer line
    return F(rng.randint(0, 14 * n), 14 * n)


def _through_vertex(n, rng):
    """A segment through a scale-n grid vertex, both ends in the unit square."""
    v = (F(rng.randint(1, n - 1), n), F(rng.randint(1, n - 1), n))
    dx, dy = F(rng.randint(-6, 6), 7 * n), F(rng.randint(-6, 6), 7 * n)
    s, t = F(rng.randint(1, 5), 2), F(rng.randint(1, 5), 3)
    p = (v[0] - s * dx, v[1] - s * dy)
    q = (v[0] + t * dx, v[1] + t * dy)
    if all(0 <= c <= 1 for c in p + q) and p != q:
        return p, q
    return None


def _segments(n, rng, count):
    out = []
    while len(out) < count:
        kind = rng.randrange(4)
        p = (_coord(n, rng), _coord(n, rng))
        if kind == 0:
            q = (_coord(n, rng), _coord(n, rng))
        elif kind == 1:
            q = (p[0], _coord(n, rng))  # vertical
        elif kind == 2:
            q = (_coord(n, rng), p[1])  # horizontal
        else:
            pq = _through_vertex(n, rng)
            if pq is None:
                continue
            p, q = pq
        out.append((p, q))
    return out


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_cells_match_fraction_walk(level):
    n = 3**level
    rng = random.Random(700 + level)
    corners = 0
    for p, q in _segments(n, rng, 600):
        got, back = list(_segment_cells(p, q, n)), list(_segment_cells(q, p, n))
        assert got == list(fraction_segment_cells(p, q, n)), (p, q, n)
        assert back == list(fraction_segment_cells(q, p, n)), (q, p, n)
        # A piece's cell does not depend on the direction of travel.
        assert back == got[::-1]
        # Consecutive cells differ in both indices where the walk passes
        # through a grid vertex.
        corners += sum(c[0] != d[0] and c[1] != d[1] for c, d in zip(got, got[1:]))
    assert corners > 20


# ---------------------------------------------------------------------------
# Guard: the edge walks build no Fraction, and crossing words no midpoint

NO_FRACTION = {
    "grid.py": ("_over_common_denominator", "_axis_walk", "_segment_cells", "validate_loop"),
}
NO_POINT_AT = {"words.py": ("crossing_intervals",)}


def _functions(tree: ast.AST, names) -> dict[str, ast.AST]:
    return {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in names
    }


def _fraction_refs(fn: ast.AST) -> list[int]:
    """Lines where a function names Fraction, bare or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(fn)
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
    ]


def _point_at_calls(fn: ast.AST) -> list[int]:
    """Lines where a function calls point_at, as a method or a name."""
    return [
        node.lineno
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Attribute) and node.func.attr == "point_at")
            or (isinstance(node.func, ast.Name) and node.func.id == "point_at")
        )
    ]


def _offenders(source: str, no_fraction, no_point_at) -> dict[str, list[int]]:
    tree = ast.parse(source)
    found = _functions(tree, set(no_fraction) | set(no_point_at))
    missing = (set(no_fraction) | set(no_point_at)) - set(found)
    assert not missing, missing
    out = {}
    for name in no_fraction:
        if hits := _fraction_refs(found[name]):
            out[name] = hits
    for name in no_point_at:
        if hits := _point_at_calls(found[name]):
            out[name] = out.get(name, []) + hits
    return out


def test_edge_walks_build_no_fraction():
    for module in set(NO_FRACTION) | set(NO_POINT_AT):
        source = (PACKAGE / module).read_text()
        assert _offenders(source, NO_FRACTION.get(module, ()), NO_POINT_AT.get(module, ())) == {}


def test_guard_sees_fractions_and_midpoints():
    src = (
        "import fractions\n"
        "def _segment_cells(p, q, n):\n"
        "    return Fraction(1, 2)\n"
        "def validate_loop(loop):\n"
        "    return fractions.Fraction(0)\n"
        "def clean(p):\n"
        "    return Fraction(p)\n"
        "def crossing_intervals(loop):\n"
        "    loop.point_at(0)\n"
        "    point_at(1)\n"
        "    return loop.point_at\n"
    )
    got = _offenders(src, ("_segment_cells", "validate_loop", "clean"), ("crossing_intervals",))
    assert got == {
        "_segment_cells": [3],
        "validate_loop": [5],
        "clean": [7],
        "crossing_intervals": [9, 10],
    }
