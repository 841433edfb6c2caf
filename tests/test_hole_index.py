"""The hole index against the scans and digit tests it replaced.

Every lookup of removed squares (kept cells, removed points, the square
a validation report names, the corridors of each strip, eligibility)
reads one index per space.  These tests compare each lookup with the
old per-call scan on random explicit spaces and with the old digit test
on full carpets, depths 1-5.
"""

import ast
import pathlib
import random
from fractions import Fraction as F

import pytest

import carpetloop
from carpetloop import (
    DefiningSequence,
    GridSquare,
    PolyLoop,
    corridors,
    eligible_squares,
    validate_loop,
)
from carpetloop.decide import max_hole_level
from carpetloop.grid import _strip

from conftest import (
    contained_1d_eligible,
    digit_cell_in_space,
    digit_point_in_removed_interior,
    fraction_segment_cells,
    random_explicit_space,
    scan_cell_in_space,
    scan_corridors,
    scan_covering_hole,
    scan_point_in_removed_interior,
)

DEPTHS = [1, 2, 3, 4, 5]
EXHAUSTIVE_DEPTH = 4  # every cell up to this scale; a sample at depth 5
SAMPLE_CELLS = 1500


def _space(kind, depth):
    if kind == "full":
        return DefiningSequence.full_carpet(depth)
    return random_explicit_space(depth, random.Random(1000 + depth))


def _cells(depth, i, rng):
    n = 3**i
    if i <= EXHAUSTIVE_DEPTH:
        return [(a, b) for a in range(n) for b in range(n)]
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(SAMPLE_CELLS)]


SPACES = [(kind, d) for kind in ("explicit", "full") for d in DEPTHS]


@pytest.mark.parametrize("kind,depth", SPACES)
def test_cells_match_oracle(kind, depth):
    seq = _space(kind, depth)
    rng = random.Random(depth)
    for i in range(1, depth + 1):
        holes = sorted((sq for sq in seq.removed if sq.level <= i), key=GridSquare.key)
        for a, b in _cells(depth, i, rng):
            if kind == "full":
                expect = digit_cell_in_space(a, b, i)
            else:
                expect = scan_cell_in_space(holes, a, b, i)
            assert seq.cell_in_space(a, b, i) == expect, (a, b, i)
            sq = seq.covering_hole(a, b, i)
            assert sq == (None if expect else scan_covering_hole(holes, a, b, i))
    # cells outside the unit square are never kept
    assert not seq.cell_in_space(-1, 0, 1) and not seq.cell_in_space(0, 3, 1)


def _random_point(depth, rng):
    # Denominator 1 puts the point on the finest grid, so grid-line points
    # (and corners of removed squares) are drawn often.
    q = 3**depth * rng.choice([1, 1, 2, 4, 5, 7])
    return (F(rng.randrange(q + 1), q), F(rng.randrange(q + 1), q))


@pytest.mark.parametrize("kind,depth", SPACES)
def test_points_match_oracle(kind, depth):
    seq = _space(kind, depth)
    rng = random.Random(10 + depth)
    for _ in range(80 if depth == 5 else 200):
        p = _random_point(depth, rng)
        for i in range(1, depth + 1):
            got = seq.point_in_removed_interior(p, i)
            if kind == "full":
                assert got == digit_point_in_removed_interior(p, i), (p, i)
            if kind == "explicit" or depth <= 3:
                assert got == scan_point_in_removed_interior(seq.removed, p, i), (p, i)


@pytest.mark.parametrize("kind,depth", SPACES)
def test_holes_by_level_match_scan(kind, depth):
    seq = _space(kind, depth)
    for i in range(0, depth + 2):
        expect = sorted((sq for sq in seq.removed if sq.level <= i), key=GridSquare.key)
        assert seq.holes_up_to(i) == tuple(expect)
        assert seq.holes_at_level(i) == tuple(sq for sq in expect if sq.level == i)
    assert max_hole_level(seq) == max((sq.level for sq in seq.removed), default=0)


@pytest.mark.parametrize("kind,depth", SPACES)
def test_corridors_match_scan(kind, depth):
    seq = _space(kind, depth)
    for i in range(1, depth + 1):
        expect = scan_corridors(seq, i)
        strips = {}
        for c in expect:
            strips.setdefault((c.orientation, c.stratum), []).append(c)
        # Strips one at a time, last first, as a loop's crossings ask for them.
        for o in ("V", "H"):
            for m in range((3**i - 1) // 2, 0, -1):
                assert _strip(seq, o, i, m) == tuple(strips[o, m]), (o, i, m)
        assert corridors(seq, i) == expect, i


def _first_edge_hole(loop, seq, depth):
    """The edge index and square the old validation reported, or None."""
    holes = sorted(seq.removed, key=GridSquare.key)
    for j, (p, q, _, _) in enumerate(loop.edges()):
        for a, b in fraction_segment_cells(p, q, 3**depth):
            if not scan_cell_in_space(seq.removed, a, b, depth):
                return j, scan_covering_hole(holes, a, b, depth)
    return None


@pytest.mark.parametrize("kind,depth", SPACES)
def test_edge_in_hole_names_oracle_square(kind, depth):
    seq = _space(kind, depth)
    rng = random.Random(20 + depth)
    n = 3**depth
    hits = 0
    for _ in range(25):
        # Triangles within a 9-cell window, vertices at cell centers, so
        # no vertex lies on a grid line and edges cross a few cells.
        a0, b0 = rng.randrange(max(1, n - 8)), rng.randrange(max(1, n - 8))
        verts = tuple(
            (F(2 * (a0 + rng.randrange(min(9, n))) + 1, 2 * n),
             F(2 * (b0 + rng.randrange(min(9, n))) + 1, 2 * n))
            for _ in range(3)
        )
        if len(set(verts)) < 3:
            continue
        loop = PolyLoop(verts)
        rep = validate_loop(loop, seq, depth)
        expect = _first_edge_hole(loop, seq, depth)
        if expect is None:
            assert rep.ok, rep
        else:
            hits += 1
            assert rep.first.kind == "EdgeInHole"
            assert (rep.first.index, rep.first.square) == expect
    assert hits > 0 or not seq.removed


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
def test_eligibility_matches_axis_test(level):
    seq = DefiningSequence.explicit(level, [])
    got = {(q.k, q.m) for q in eligible_squares(seq, level)}
    assert got == contained_1d_eligible(level)


# ---------------------------------------------------------------------------
# One path: nothing outside serialize.py branches on the space's pattern

PACKAGE = pathlib.Path(carpetloop.__file__).parent
FORK_ATTRS = {"pattern", "is_full_carpet"}


def _pattern_reads(tree: ast.AST) -> list[str]:
    return [
        f".{node.attr} at line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in FORK_ATTRS
    ]


def test_only_serialize_reads_pattern():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = {}
    for p in modules:
        hits = _pattern_reads(ast.parse(p.read_text()))
        if hits and p.name != "serialize.py":
            offenders[p.name] = hits
    assert offenders == {}


def test_guard_sees_pattern_reads():
    src = "seq.pattern == 'x'\nif seq.is_full_carpet: pass\nseq.removed\n"
    assert len(_pattern_reads(ast.parse(src))) == 2
