"""Disk fillings: cell classification, cellulations, targets, convergence."""

import ast
import inspect
import json
import pathlib
import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from carpetloop import (
    CancellationDiagram,
    CrossingInterval,
    CyclicWord,
    DefiningSequence,
    Letter,
    TraceWord,
    TrivialUpTo,
    build_cellulation,
    build_homotopy,
    circle_param,
    circle_point,
    convergence_gap,
    corridors,
    crossing_relation,
    decide,
    encode_word,
    enumerate_diagrams,
    evaluate,
    first_diagram,
    verify_containment,
)
from carpetloop.errors import (
    AssignmentFailure,
    IncompatibleHomotopies,
    MalformedDiagram,
)
from carpetloop import homotopy
from carpetloop.homotopy import (
    FaceFill,
    Target,
    _float_orient,
    _free_target,
    _segments_cross,
)
from carpetloop.grid import _segment_cells
from carpetloop.serialize import loop_from_json

from conftest import (
    _cross,
    classify_squares,
    closed_walk_word,
    fraction_circle_point,
    fraction_convergence_gap,
    fraction_verify_containment,
    gap_oracle,
    out_and_back_word,
    random_explicit_space,
    realized_loop,
    recursive_build_cellulation,
    word_from_letters,
)

DATA = pathlib.Path(__file__).parent / "data"

# A depth-4 loop whose filling needs a "plus" target: a free face's
# values wrap around a hole, so no snapped box is hole-free.
PLUS_LOOP = {
    "vertices": [
        ["19/54", "121/162"], ["53/162", "121/162"], ["53/162", "13/18"],
        ["35/108", "13/18"], ["35/108", "241/324"], ["19/54", "241/324"],
    ]
}


def homotopies_for(loop, seq, levels):
    """One filling per level, built over a shared disk polygon."""
    marks = set()
    words = {}
    for lvl in levels:
        w = encode_word(loop, seq, lvl)
        words[lvl] = w
        for l in w.letters:
            marks.add(l.interval.start)
            marks.add(l.interval.end % 1)
    out = {}
    for lvl in levels:
        w = words[lvl]
        if w.letters:
            d = enumerate_diagrams(w.trace, cap=2000)[0]
        else:
            d = CancellationDiagram(frozenset())
        out[lvl] = build_homotopy(
            loop, seq, lvl, d, word=w, extra_params=sorted(marks)
        )
    return out


def scheme_homotopies(loop, seq):
    """Fillings at every level from the decided scheme, over shared marks."""
    v = decide(loop, seq)
    assert isinstance(v, TrivialUpTo) and v.conclusive, v
    marks = sorted(
        {t for w in v.words for l in w.letters for t in (l.interval.start, l.interval.end % 1)}
    )
    return [
        build_homotopy(loop, seq, i, d, word=w, extra_params=marks)
        for i, (w, d) in enumerate(zip(v.words, v.scheme.diagrams), start=1)
    ]


def sample_loop(seq, level, rng, max_len=3):
    while True:
        loop = realized_loop(seq, out_and_back_word(seq, level, rng, max_len))
        if loop is not None:
            return loop


class TestClassify:
    def test_level1_census(self, fc1):
        cts = classify_squares(fc1, 1)
        assert len(cts) == 8
        assert Counter(c.kind for c in cts) == {0: 4, 1: 4}

    def test_level2_census(self, fc2):
        cts = classify_squares(fc2, 2)
        assert len(cts) == 60
        assert Counter(c.kind for c in cts) == {0: 24, 1: 36}

    def test_matches_membership(self, fc3):
        cts = classify_squares(fc3, 3)
        kept = sum(
            1 for a in range(27) for b in range(27) if fc3.cell_in_space(a, b, 3)
        )
        assert len(cts) == kept
        # both-odd cells are removed at the first scale already
        assert all(c.kind < 2 for c in cts)

    def test_junction_cells_without_holes(self):
        seq = DefiningSequence.explicit(1, [])
        cts = classify_squares(seq, 1)
        assert len(cts) == 9
        assert Counter(c.kind for c in cts) == {0: 4, 1: 4, 2: 1}

    def test_rects_tile_their_cells(self, fc1):
        for c in classify_squares(fc1, 1):
            x0, x1, y0, y1 = c.rect
            assert x1 - x0 == F(1, 3) and y1 - y0 == F(1, 3)


class TestCircleMap:
    def test_matches_fraction_oracle(self):
        # Quadrant boundaries, negative parameters and t >= 1 included.
        rng = random.Random(101)
        ts = [F(k, 8) for k in range(-16, 25)]
        while len(ts) < 20_000:
            den = rng.randint(1, 10 ** rng.randint(1, 12))
            ts.append(F(rng.randint(-3 * den, 3 * den), den))
        for t in ts:
            assert circle_point(t) == fraction_circle_point(t), t

    def test_round_trip_exact(self):
        for t in (F(0), F(1, 8), F(1, 3), F(9, 17), F(3, 4), F(123, 124)):
            p = circle_point(t)
            assert p[0] ** 2 + p[1] ** 2 == 1
            assert circle_param(p) == t

    def test_cardinal_points(self):
        assert circle_point(F(0)) == (F(1), F(0))
        assert circle_point(F(1, 4)) == (F(0), F(1))
        assert circle_point(F(1, 2)) == (F(-1), F(0))
        assert circle_point(F(3, 4)) == (F(0), F(-1))

    def test_params_increase_counterclockwise(self):
        ts = [F(k, 40) for k in range(40)]
        pts = [circle_point(t) for t in ts]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            assert a[0] * b[1] - a[1] * b[0] > 0


class TestCellulation:
    def test_band_per_pair(self, fc2):
        rng = random.Random(41)
        loop = sample_loop(fc2, 2, rng)
        w = encode_word(loop, fc2, 2)
        d = enumerate_diagrams(w.trace)[0]
        cell = build_cellulation(w, d, params=[loop.vertex_param(j) for j in range(len(loop))])
        assert len(cell.bands) == len(d.pairs)
        assert len([n for n in cell.nodes if n.param is not None]) == len(cell.params)
        for f in cell.faces:
            assert len(f.nodes) >= 3
            assert len(f.bands) <= 2

    def test_noncommuting_cross_is_malformed(self, fc1):
        cs = corridors(fc1, 1)
        v = next(c for c in cs if c.orientation == "V")
        h = next(c for c in cs if c.orientation == "H")
        w = word_from_letters(fc1, 1, [(v, 1), (h, 1), (v, -1), (h, -1)])
        with pytest.raises(MalformedDiagram):
            build_cellulation(w, CancellationDiagram.of((0, 2), (1, 3)))

    def test_commuting_cross_makes_crossing_nodes(self):
        seq = DefiningSequence.explicit(1, [])
        cs = corridors(seq, 1)
        v = next(c for c in cs if c.orientation == "V")
        h = next(c for c in cs if c.orientation == "H")
        w = word_from_letters(seq, 1, [(v, 1), (h, 1), (v, -1), (h, -1)])
        cell = build_cellulation(w, CancellationDiagram.of((0, 2), (1, 3)))
        assert cell.crossings
        node, c1, c2 = cell.crossings[0]
        assert cell.nodes[node].param is None
        assert cell.chords[c1].band != cell.chords[c2].band


    def test_cuts_match_recursive_oracle(self):
        # The same faces, crossing nodes and bands as the recursive cut, on
        # every diagram of realized walk words on random explicit spaces,
        # where crossing corridors commute and chords cross.
        rng = random.Random(43)
        crossings = 0
        for depth in (1, 2, 3):
            seq = random_explicit_space(depth, rng, keep=0.3)
            for _ in range(10):
                word = closed_walk_word(seq, depth, rng, wander=12)
                loop = realized_loop(seq, word)
                if loop is None:
                    continue
                for i in range(1, depth + 1):
                    w = encode_word(loop, seq, i)
                    params = [loop.vertex_param(j) for j in range(len(loop))]
                    for d in enumerate_diagrams(w.trace, cap=10**6)[:6]:
                        got = build_cellulation(w, d, params=params)
                        assert got == recursive_build_cellulation(w, d, params=params)
                        crossings += len(got.crossings)
        assert crossings > 100

    def test_deep_nesting_needs_no_recursion(self, fc2):
        # The level-2 word of the loop that walks out and back 8 times (96
        # letters) is its own inverse read backwards, so pairing k with
        # n-1-k is a valid diagram whose 96 chords all nest.  The recursive
        # cut nests one call per chord.
        loop = loop_from_json(json.loads((DATA / "out_and_back_x8_fc5.json").read_text()))
        w = encode_word(loop, fc2, 2)
        n = len(w)
        assert n == 96
        d = CancellationDiagram.of(*[(k, n - 1 - k) for k in range(n // 2)])
        want = recursive_build_cellulation(w, d)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            with pytest.raises(RecursionError):
                recursive_build_cellulation(w, d)
            got = build_cellulation(w, d)
        finally:
            sys.setrecursionlimit(limit)
        assert got == want


def hand_word(seq, level, letters):
    """A word from (corridor, sign, start, end) letters at the given marks."""
    word = tuple(Letter(c, sign, CrossingInterval(a, b, c, sign)) for c, sign, a, b in letters)
    present = {l.generator for l in word}
    rel = frozenset(p for p in crossing_relation(seq, level) if p <= present)
    return CyclicWord(level, word, rel)


def names_in(fn) -> set[str]:
    tree = ast.parse(inspect.getsource(fn))
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


class TestBandMembership:
    """Faces read their bands off the directed edges of the cut."""

    @pytest.fixture
    def hv(self):
        seq = DefiningSequence.explicit(1, [])
        cs = corridors(seq, 1)
        v = next(c for c in cs if c.orientation == "V")
        h = next(c for c in cs if c.orientation == "H")
        return seq, h, v

    def test_twin_chords(self, hv):
        # Both bands' first chords run from 1/4 to 1/2, so the second is
        # skipped as geometrically identical to the first.
        seq, h, v = hv
        w = hand_word(
            seq, 1,
            [(h, 1, F(0), F(1, 4)), (v, 1, F(1, 8), F(1, 4)),
             (h, -1, F(1, 2), F(3, 4)), (v, -1, F(1, 2), F(5, 8))],
        )
        d = CancellationDiagram.of((0, 2), (1, 3))
        cell = build_cellulation(w, d)
        c = cell.chords
        assert (c[0].a, c[0].b) == (c[2].a, c[2].b)
        assert cell == recursive_build_cellulation(w, d)
        assert (0, 1) in [f.bands for f in cell.faces]

    def test_band_nested_in_a_strip(self, hv):
        # The V band lies inside the H band's strip: its junction face
        # touches no chord of the H band, only its arcs.
        seq, h, v = hv
        w = hand_word(
            seq, 1,
            [(h, 1, F(0), F(1, 4)), (v, 1, F(1, 16), F(1, 8)),
             (h, -1, F(1, 2), F(3, 4)), (v, -1, F(9, 16), F(5, 8))],
        )
        d = CancellationDiagram.of((0, 2), (1, 3))
        cell = build_cellulation(w, d)
        assert cell == recursive_build_cellulation(w, d)
        (junction,) = [f for f in cell.faces if f.bands == (0, 1)]
        h_chords = {cell.chords[0].a, cell.chords[0].b, cell.chords[1].a, cell.chords[1].b}
        assert not any(
            {junction.nodes[k - 1], junction.nodes[k]} <= h_chords
            for k in range(len(junction.nodes))
        )

    @pytest.mark.parametrize("nested", [False, True])
    def test_fixture_level_three_word(self, fc3, nested):
        loop = loop_from_json(json.loads((DATA / "out_and_back_x8_fc5.json").read_text()))
        w = encode_word(loop, fc3, 3)
        n = len(w)
        assert n == 288
        if nested:
            d = CancellationDiagram.of(*[(k, n - 1 - k) for k in range(n // 2)])
        else:
            d = first_diagram(w.trace)
        params = [loop.vertex_param(j) for j in range(len(loop))]
        assert build_cellulation(w, d, params=params) == recursive_build_cellulation(
            w, d, params=params
        )

    def test_no_geometric_membership_pass(self):
        assert not names_in(homotopy.build_cellulation) & {"_cross", "_centroid"}

    def test_guard_sees_geometry(self):
        # The guard's self-test: the oracle still tests centroids.
        assert {"_cross", "_centroid"} <= names_in(recursive_build_cellulation)


class TestFilling:
    def test_boundary_law_exact(self, fc2):
        rng = random.Random(17)
        loop = sample_loop(fc2, 2, rng)
        homs = homotopies_for(loop, fc2, (1, 2))
        for h in homs.values():
            for t in (F(0), F(1, 7), F(2, 5), F(1, 2), F(7, 9), F(11, 13)):
                assert evaluate(h, circle_point(t)) == loop.point_at(t)

    def test_target_kinds_and_containment(self, fc2):
        rng = random.Random(23)
        seen = Counter()
        for _ in range(3):
            loop = sample_loop(fc2, 2, rng)
            for h in homotopies_for(loop, fc2, (1, 2)).values():
                seen.update(h.target_kinds)
                rep = verify_containment(h)
                assert rep.ok, rep.violations[:2]
                assert rep.exact_faces == len(h.fills)
        assert set(seen) <= {"junction", "corridor", "rect", "plus"}
        assert seen["corridor"] > 0

    def test_junction_face_at_a_commuting_crossing(self):
        # Crossing chords need a commuting pair, so junction faces never
        # occur where the crossing relation is empty; the unpunctured
        # square provides the one H-V pair.
        from carpetloop import realize_word

        unp = DefiningSequence.explicit(1, [])
        cs = corridors(unp, 1)
        v = next(c for c in cs if c.orientation == "V")
        h = next(c for c in cs if c.orientation == "H")
        w0 = word_from_letters(unp, 1, [(h, 1), (v, 1), (h, -1), (v, -1)])
        loop = realize_word(w0, unp)
        w = encode_word(loop, unp, 1)
        (d,) = enumerate_diagrams(w.trace)
        hom = build_homotopy(loop, unp, 1, d, word=w)
        kinds = Counter(hom.target_kinds)
        assert kinds["junction"] == 1
        assert verify_containment(hom).ok
        jfill = next(f for f in hom.fills if f.target.kind == "junction")
        x0, x1, y0, y1 = jfill.target.rect
        assert (x0, x1) == v.transverse
        assert (y0, y1) == h.transverse

    def test_full_carpet_has_no_junction_faces(self, fc2):
        rng = random.Random(29)
        for _ in range(4):
            loop = sample_loop(fc2, 2, rng, max_len=4)
            h = homotopies_for(loop, fc2, (2,))[2]
            assert "junction" not in h.target_kinds

    def test_annulus_collapses_radially(self, fc2):
        rng = random.Random(37)
        loop = sample_loop(fc2, 2, rng)
        h = homotopies_for(loop, fc2, (1,))[1]
        ring = sorted(
            (n for n in h.cellulation.nodes if n.param is not None),
            key=lambda n: n.param,
        )
        a, b = ring[0].point, ring[1].point
        m = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        base = evaluate(h, m)
        for num, den in ((201, 200), (101, 100)):
            z = (m[0] * num / den, m[1] * num / den)
            assert z[0] ** 2 + z[1] ** 2 < 1
            assert evaluate(h, z) == base

    def test_interior_point_lands_in_space(self, fc2):
        rng = random.Random(43)
        loop = sample_loop(fc2, 2, rng)
        for h in homotopies_for(loop, fc2, (1, 2)).values():
            v = evaluate(h, (F(0), F(0)))
            assert not fc2.point_in_removed_interior(v, h.level)

    def test_outside_disk_rejected(self, fc2):
        rng = random.Random(47)
        loop = sample_loop(fc2, 2, rng)
        h = homotopies_for(loop, fc2, (1,))[1]
        with pytest.raises(ValueError):
            evaluate(h, (F(2), F(0)))

    def test_containment_flags_bad_values(self, fc2):
        rng = random.Random(53)
        loop = sample_loop(fc2, 2, rng)
        h = homotopies_for(loop, fc2, (1,))[1]
        bad = (F(4, 9), F(4, 9))
        fill = h.fills[0]
        dom = fill.triangles[0][0]
        fills = list(h.fills)
        fills[0] = replace(fill, triangles=((dom, (bad, bad, bad)),))
        tampered = replace(h, fills=tuple(fills))
        rep = verify_containment(tampered)
        assert not rep.ok
        assert rep.violations

    def test_word_level_mismatch_rejected(self, fc2):
        rng = random.Random(59)
        loop = sample_loop(fc2, 2, rng)
        w = encode_word(loop, fc2, 1)
        d = enumerate_diagrams(w.trace)[0]
        with pytest.raises(ValueError):
            build_homotopy(loop, fc2, 2, d, word=w)


class TestFreeTargets:
    def test_snapped_box_when_clear(self, fc1):
        t = _free_target(fc1, 1, [(F(1, 9), F(1, 9)), (F(2, 9), F(2, 9))], [])
        assert t.kind == "rect"
        assert t.rect == (F(0), F(1, 3), F(0), F(1, 3))

    def test_plus_when_box_blocked(self, fc1):
        # An L around the central hole: the snapped box would contain it.
        vals = [(F(1, 18), F(1, 18)), (F(5, 9), F(1, 18)), (F(1, 18), F(5, 9))]
        edges = [(vals[0], vals[1]), (vals[0], vals[2])]
        t = _free_target(fc1, 1, vals, edges)
        assert t.kind == "plus"
        assert set(t.cells) == {(0, 0), (0, 1), (1, 0)}
        assert t.center == (F(1, 6), F(1, 6))

    def test_no_region_is_loud(self, fc1):
        vals = [(F(1, 9), F(4, 9)), (F(7, 9), F(4, 9))]
        with pytest.raises(AssignmentFailure):
            _free_target(fc1, 1, vals, [(vals[0], vals[1])])

    def test_plus_faces_are_affine_and_contained(self, fc4):
        loop = loop_from_json(PLUS_LOOP)
        hs = scheme_homotopies(loop, fc4)
        assert any("plus" in h.target_kinds for h in hs)
        for h in hs:
            rep = verify_containment(h)
            assert rep.exact_faces == len(h.fills)
            assert rep.ok, rep.violations[:2]
            for f in h.fills:
                if f.target.kind == "plus":
                    assert all(val[0] == f.target.center for _, val in f.triangles)
        for a, b in zip(hs, hs[1:]):
            g = convergence_gap(a, b)
            assert g.holds, (g.level_pair, g.max_sq)

    def test_segment_in_cells(self):
        # Endpoints on grid lines: only the cells the open segment enters,
        # in order along it.
        a, b = (F(1, 6), F(0)), (F(1, 6), F(2, 3))
        assert list(_segment_cells(a, b, 3)) == [(0, 0), (0, 1)]
        assert list(_segment_cells(b, a, 3)) == [(0, 1), (0, 0)]
        assert list(_segment_cells(a, (F(5, 6), F(1, 3)), 3)) == [(0, 0), (1, 0), (2, 0)]
        # Through a grid vertex: no third cell.
        assert list(_segment_cells((F(0), F(0)), (F(2, 3), F(2, 3)), 3)) == [(0, 0), (1, 1)]
        # A piece on a line takes the cell above it.
        assert list(_segment_cells((F(0), F(1, 3)), (F(2, 3), F(1, 3)), 3)) == [(0, 1), (1, 1)]


class TestGap:
    def test_gap_shrinks_under_bound(self, fc3):
        rng = random.Random(61)
        loop = sample_loop(fc3, 2, rng)
        homs = homotopies_for(loop, fc3, (1, 2, 3))
        for lvl in (1, 2):
            g = convergence_gap(homs[lvl], homs[lvl + 1])
            assert g.holds
            assert g.bound == F(6, 3**lvl)
            assert g.max_sq <= g.bound**2

    def test_gap_requires_consecutive_levels(self, fc3):
        rng = random.Random(67)
        loop = sample_loop(fc3, 2, rng)
        homs = homotopies_for(loop, fc3, (1, 2, 3))
        with pytest.raises(IncompatibleHomotopies):
            convergence_gap(homs[1], homs[3])

    def test_gap_requires_same_loop(self, fc3):
        rng = random.Random(71)
        l1 = sample_loop(fc3, 2, rng)
        l2 = sample_loop(fc3, 2, rng)
        assert l1 != l2
        h1 = homotopies_for(l1, fc3, (1,))[1]
        h2 = homotopies_for(l2, fc3, (2,))[2]
        with pytest.raises(IncompatibleHomotopies):
            convergence_gap(h1, h2)

    def test_gap_requires_shared_polygon(self, fc2):
        rng = random.Random(73)
        loop = sample_loop(fc2, 2, rng)
        h1 = homotopies_for(loop, fc2, (1,))[1]
        h2 = homotopies_for(loop, fc2, (2,))[2]
        with pytest.raises(IncompatibleHomotopies):
            convergence_gap(h1, h2)


def assert_gap_matches_oracle(h1, h2):
    """The edge-pair gap agrees exactly with the triangle-pair overlay."""
    g = convergence_gap(h1, h2)
    max_sq, witness = gap_oracle(h1, h2)
    assert g.max_sq == max_sq, (g.level_pair, g.max_sq, max_sq)
    assert g.witness == witness, (g.level_pair, g.witness, witness)
    assert g.holds == (max_sq <= g.bound**2)
    if g.witness is None:
        assert g.max_sq == 0
    else:
        v1, v2 = evaluate(h1, g.witness), evaluate(h2, g.witness)
        assert (v1[0] - v2[0]) ** 2 + (v1[1] - v2[1]) ** 2 == g.max_sq


def _square_corners():
    """Corners of the square [-1/2, 1/2]^2, counterclockwise from (-1/2, -1/2)."""
    h = F(1, 2)
    return (-h, -h), (h, -h), (h, h), (-h, h)


def _with_triangles(h, tris):
    """A copy of h whose map is the given (domain, values) triangles."""
    return replace(h, fills=(FaceFill(0, Target("rect"), tuple(tris)),))


def explicit_walk_homotopies(depth):
    """Fillings of a contractible closed walk whose level-depth disk has junction faces.

    Closed walks in spaces that keep some odd-odd cells may cross
    corridors that commute; draws until the disk has crossing chords.
    """
    rng = random.Random(97 + depth)
    for _ in range(200):
        seq = random_explicit_space(depth, rng)
        loop = realized_loop(seq, closed_walk_word(seq, depth, rng, wander=4))
        if loop is None or not isinstance(decide(loop, seq), TrivialUpTo):
            continue
        homs = homotopies_for(loop, seq, range(1, depth + 1))
        if homs[depth].cellulation.crossings:
            return homs
    pytest.fail("no contractible walk with crossing chords drawn")


class TestGapOverlay:
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_matches_oracle_on_explicit_spaces(self, depth):
        homs = explicit_walk_homotopies(depth)
        for lvl in range(1, depth):
            assert_gap_matches_oracle(homs[lvl], homs[lvl + 1])

    def test_matches_oracle_on_full_carpets(self, fc2, fc3, fc4):
        rng = random.Random(79)
        for seq in (fc2, fc3, fc4):
            loop = sample_loop(seq, seq.depth, rng)
            homs = homotopies_for(loop, seq, range(1, seq.depth + 1))
            for lvl in range(1, seq.depth):
                assert_gap_matches_oracle(homs[lvl], homs[lvl + 1])

    def test_matches_oracle_on_plus_faces(self, fc4):
        hs = scheme_homotopies(loop_from_json(PLUS_LOOP), fc4)
        for a, b in zip(hs, hs[1:]):
            assert_gap_matches_oracle(a, b)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-1, max_value=1, max_denominator=10**12),
            min_size=4,
            max_size=4,
        ),
        st.fractions(min_value=-2, max_value=2, max_denominator=10**6),
        st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
        st.integers(10, 22),
    )
    def test_float_orientation_never_contradicts_exact(self, xy, t, offset, scale):
        # b lies offset * 10^-scale off the line through o and a: collinear
        # and near-collinear triples, where rounding could flip a sign.
        o, a = (xy[0], xy[1]), (xy[2], xy[3])
        clip = lambda v: min(F(1), max(F(-1), v))
        e = F(1, 10**scale)
        b = tuple(clip(o[k] + t * (a[k] - o[k]) + offset[k] * e) for k in (0, 1))
        for p, q, r in ((o, a, b), (a, b, o), (b, o, a), (o, b, a)):
            s = _float_orient(*map(float, p + q + r))
            exact = _cross(p, q, r)
            assert s == 0 or s == (1 if exact > 0 else -1), (p, q, r, s, exact)

    def test_float_orientation_decides_clear_cases(self):
        o, a, b = (F(0), F(0)), (F(1, 2), F(0)), (F(0), F(1, 3))
        assert _float_orient(*map(float, o + a + b)) == 1
        assert _float_orient(*map(float, o + b + a)) == -1
        assert _float_orient(*map(float, o + a + (F(1, 4), F(0)))) == 0

    def test_segments_cross_only_properly(self):
        a, b, c = (F(0), F(0)), (F(2), F(0)), (F(1), F(0))
        # An endpoint touching the other segment, from either side.
        assert _segments_cross(a, b, c, (F(1), F(1))) is None
        assert _segments_cross(a, b, c, (F(1), F(-1))) is None
        assert _segments_cross(c, (F(1), F(1)), a, b) is None
        # Shared endpoint and collinear overlap.
        assert _segments_cross(a, b, b, (F(3), F(1))) is None
        assert _segments_cross(a, b, c, (F(3), F(0))) is None
        assert _segments_cross(a, b, (F(1), F(-1)), (F(1), F(1))) == (F(1, 2), F(1, 2))

    def test_t_junction_and_collinear_overlap(self, fc2):
        # The first mesh cuts the square along its diagonal; the second
        # has two vertices on that diagonal, so one of its edges runs
        # along the diagonal without sharing an endpoint and four of its
        # edges end on it.  The largest difference sits on such a vertex.
        homs = homotopies_for(sample_loop(fc2, 2, random.Random(83)), fc2, (1, 2))
        p00, p10, p11, p01 = _square_corners()
        q1, q2 = (F(-1, 4), F(-1, 4)), (F(1, 4), F(1, 4))
        same = lambda *dom: (dom, dom)
        h1 = _with_triangles(homs[1], [same(p00, p10, p11), same(p00, p11, p01)])
        bumped = (q2[0] + F(1, 10), q2[1])
        tris2 = [
            same(p00, p10, q1),
            ((q1, p10, q2), (q1, p10, bumped)),
            ((q2, p10, p11), (bumped, p10, p11)),
            same(p00, q1, p01),
            ((q1, q2, p01), (q1, bumped, p01)),
            ((q2, p11, p01), (bumped, p11, p01)),
        ]
        h2 = _with_triangles(homs[2], tris2)
        g = convergence_gap(h1, h2)
        assert g.max_sq == gap_oracle(h1, h2)[0] == F(1, 100)
        assert g.witness == q2
        assert g.pairs_checked > 0
        assert g == fraction_convergence_gap(h1, h2)

    def test_proper_crossing_is_the_maximum(self, fc2):
        # The meshes cut the square along opposite diagonals and push
        # their diagonal ends apart, so the maps differ most where the
        # diagonals cross, a corner neither mesh has as a vertex.
        homs = homotopies_for(sample_loop(fc2, 2, random.Random(89)), fc2, (1, 2))
        p00, p10, p11, p01 = _square_corners()
        right = lambda p: (p[0] + F(1, 10), p[1])
        left = lambda p: (p[0] - F(1, 10), p[1])
        h1 = _with_triangles(
            homs[1],
            [
                ((p00, p10, p11), (right(p00), p10, right(p11))),
                ((p00, p11, p01), (right(p00), right(p11), p01)),
            ],
        )
        h2 = _with_triangles(
            homs[2],
            [
                ((p00, p10, p01), (p00, left(p10), left(p01))),
                ((p10, p11, p01), (left(p10), p11, left(p01))),
            ],
        )
        g = convergence_gap(h1, h2)
        assert g.max_sq == gap_oracle(h1, h2)[0] == F(4, 100)
        assert g.witness == (F(0), F(0))
        assert g == fraction_convergence_gap(h1, h2)

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_tied_corners_name_the_least(self, fc2, order):
        # Both meshes are symmetric under y -> -y.  The second pushes its
        # two interior vertices (0, +-1/4) right by 1/10, so the maps differ
        # most at both of them; the witness is the lower one, in whichever
        # order the triangles come.
        homs = homotopies_for(sample_loop(fc2, 2, random.Random(83)), fc2, (1, 2))
        p00, p10, p11, p01 = _square_corners()
        o, lo, hi = (F(0), F(0)), (F(0), F(-1, 4)), (F(0), F(1, 4))
        same = lambda *dom: (dom, dom)
        tris1 = [same(o, p00, p10), same(o, p10, p11), same(o, p11, p01), same(o, p01, p00)]
        bump = {lo: (F(1, 10), F(-1, 4)), hi: (F(1, 10), F(1, 4))}
        bumped = lambda *dom: (dom, tuple(bump.get(p, p) for p in dom))
        # The first triangle has the lower vertex only, the last the upper.
        tris2 = [
            bumped(p00, p10, lo), bumped(o, lo, p10), bumped(o, p00, lo), bumped(o, p10, p11),
            bumped(o, p01, p00), bumped(o, p11, hi), bumped(o, hi, p01), bumped(p11, p01, hi),
        ]
        if order == "reversed":
            tris1, tris2 = tris1[::-1], tris2[::-1]
        h1, h2 = _with_triangles(homs[1], tris1), _with_triangles(homs[2], tris2)
        g = convergence_gap(h1, h2)
        assert g.max_sq == F(1, 100)
        assert g.witness == lo
        assert gap_oracle(h1, h2) == (g.max_sq, lo)
        assert g == fraction_convergence_gap(h1, h2)


def assert_reports_match_fraction_oracle(hs):
    """Whole containment and gap reports equal their Fraction predecessors'."""
    for h in hs:
        assert verify_containment(h) == fraction_verify_containment(h)
    for a, b in zip(hs, hs[1:]):
        assert convergence_gap(a, b) == fraction_convergence_gap(a, b)


def defined_in(source) -> set[str]:
    tree = ast.parse(inspect.getsource(source))
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


class TestIntegerKernels:
    """Gap and containment in integers agree with the Fraction oracles."""

    def test_ac6_walks(self, fc4):
        # Filled from the decided scheme, as `fill` does, and from each
        # level's first diagram, as AC6 does.
        rng = random.Random(6)
        for _ in range(8):
            loop = sample_loop(fc4, 4, rng, max_len=4)
            assert_reports_match_fraction_oracle(scheme_homotopies(loop, fc4))
            homs = homotopies_for(loop, fc4, range(1, 5))
            assert_reports_match_fraction_oracle([homs[lvl] for lvl in range(1, 5)])

    def test_plus_loop(self, fc4):
        assert_reports_match_fraction_oracle(scheme_homotopies(loop_from_json(PLUS_LOOP), fc4))

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_explicit_spaces(self, depth):
        homs = explicit_walk_homotopies(depth)
        assert_reports_match_fraction_oracle([homs[lvl] for lvl in range(1, depth + 1)])

    def test_violations_and_hit_points(self, fc2):
        # Values pushed across the central square and a level-2 square,
        # and one triangle that only touches removed squares' corners.
        h = homotopies_for(sample_loop(fc2, 2, random.Random(53)), fc2, (2,))[2]
        bad = [
            ((F(1, 4), F(1, 4)), (F(1, 2), F(1, 4)), (F(1, 4), F(1, 2))),
            ((F(0), F(0)), (F(1, 3), F(0)), (F(0), F(1, 3))),
            ((F(2, 9), F(2, 9)), (F(1, 3), F(2, 9)), (F(2, 9), F(1, 3))),
        ]
        assert len(h.fills) >= len(bad)
        fills = list(h.fills)
        for k, val in enumerate(bad):
            fill = fills[k]
            fills[k] = replace(fill, triangles=((fill.triangles[0][0], val), *fill.triangles[1:]))
        tampered = replace(h, fills=tuple(fills))
        rep = verify_containment(tampered)
        assert rep == fraction_verify_containment(tampered)
        assert [f for f, _ in rep.violations][:2] == [0, 1]
        for _, hit in rep.violations:
            assert fc2.point_in_removed_interior(hit, 2)

    def test_face_box_meets_a_hole_its_triangle_misses(self, fc2):
        # The value triangle's box holds the central square, but the
        # triangle lies in x + y <= 2/3 and touches the square at a corner
        # only: the face is tested, and nothing is found.
        h = homotopies_for(sample_loop(fc2, 2, random.Random(53)), fc2, (1,))[1]
        miss = ((F(0), F(0)), (F(2, 3), F(0)), (F(0), F(2, 3)))
        assert next(homotopy._hole_squares(miss, fc2, 1), None) is not None
        fill = h.fills[0]
        fills = (replace(fill, triangles=((fill.triangles[0][0], miss),)), *h.fills[1:])
        tampered = replace(h, fills=fills)
        rep = verify_containment(tampered)
        assert rep.ok
        assert rep == fraction_verify_containment(tampered)

    def test_face_entering_a_hole_past_its_first_triangle(self, fc2):
        # The face's first triangle misses the central square, its second
        # enters it: the same face and hit point as the oracle's.
        h = homotopies_for(sample_loop(fc2, 2, random.Random(53)), fc2, (1,))[1]
        miss = ((F(0), F(0)), (F(2, 3), F(0)), (F(0), F(2, 3)))
        enter = ((F(1, 4), F(1, 4)), (F(1, 2), F(1, 4)), (F(1, 4), F(1, 2)))
        k = len(h.fills) - 1
        fill = h.fills[k]
        dom = fill.triangles[0][0]
        face_fill = replace(fill, triangles=((dom, miss), (dom, enter)))
        tampered = replace(h, fills=(*h.fills[:k], face_fill))
        rep = verify_containment(tampered)
        assert rep == fraction_verify_containment(tampered)
        ((face, hit),) = rep.violations
        assert face == fill.face
        assert fc2.point_in_removed_interior(hit, 1)

    def test_edge_pairs_are_the_meeting_boxes(self):
        # Short and long edges on a coarse lattice, so boxes share low x,
        # touch and nest: the sweep yields each meeting pair with four
        # distinct ends once.
        rng = random.Random(109)
        for _ in range(40):
            pts = [(None, rng.randint(-4, 4) / 4, rng.randint(-4, 4) / 4) for _ in range(12)]
            edges = [
                [tuple(rng.sample(range(12), 2)) for _ in range(rng.randint(1, 15))] for _ in (1, 2)
            ]
            got = [(e1[:2], e2[:2]) for e1, e2 in homotopy._edge_pairs(*edges, pts)]

            def box(e):
                xs, ys = [pts[v][1] for v in e], [pts[v][2] for v in e]
                return min(xs), max(xs), min(ys), max(ys)

            def meet(b, c):
                return b[0] <= c[1] and c[0] <= b[1] and b[2] <= c[3] and c[2] <= b[3]

            want = [
                (e1, e2)
                for e1 in edges[0]
                for e2 in edges[1]
                if meet(box(e1), box(e2)) and not set(e1) & set(e2)
            ]
            assert sorted(got) == sorted(want)

    def test_gap_sweeps_without_a_grid(self):
        assert not names_in(homotopy.convergence_gap) & {"_bucket_of", "_GRID"}
        assert "_bucket_of" not in defined_in(homotopy) and not hasattr(homotopy, "_GRID")

    def test_guard_sees_the_grid(self):
        # The guard's self-test: the oracle still files edges in buckets.
        import conftest

        assert "_bucket_of" in names_in(fraction_convergence_gap)
        assert "_bucket_of" in defined_in(conftest) and hasattr(conftest, "_GRID")

    def test_gap_has_no_fraction_kernels(self):
        assert not names_in(homotopy.convergence_gap) & {"_segments_cross", "_lerp", "_point_key"}
        assert "_point_key" not in defined_in(homotopy)

    def test_guard_sees_fraction_kernels(self):
        # The guard's self-test: the oracle still crosses and keys in Fractions.
        import conftest

        assert {"_segments_cross", "_lerp", "_point_key"} <= names_in(fraction_convergence_gap)
        assert "_point_key" in defined_in(conftest)
