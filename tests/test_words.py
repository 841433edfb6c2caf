"""Crossing intervals, word encoding, refinement, and realization."""

import functools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from carpetloop import (
    CrossingInterval,
    CyclicWord,
    DefiningSequence,
    Letter,
    PolyLoop,
    RefinementViolation,
    TrivialUpTo,
    Unroutable,
    central_ring,
    corridors,
    crossing_intervals,
    crossing_relation,
    decide,
    encode_word,
    grid,
    realize_word,
    refinement_map,
    subdivided_ring,
    validate_loop,
    words,
)
from carpetloop.errors import DegeneratePosition

from conftest import (
    closed_walk_word,
    contains_param,
    cyclically_equal,
    free_fine_letters,
    out_and_back_word,
    random_explicit_space,
    realized_loop,
    role_of_fine,
    scan_crossing_intervals,
    scan_crossing_relation,
    scan_encode_word,
    scan_refinement_map,
    word_from_letters,
)

HSETTINGS = dict(derandomize=True, deadline=None, max_examples=60)


class TestCrossingRelation:
    def test_full_carpet_is_free(self, fc1, fc2):
        assert crossing_relation(fc1, 1) == frozenset()
        assert crossing_relation(fc2, 2) == frozenset()

    def test_unpunctured_square_commutes(self):
        seq = DefiningSequence.explicit(1, [])
        rel = crossing_relation(seq, 1)
        assert len(rel) == 1
        (pair,) = rel
        a, b = sorted(pair)
        assert {a[0], b[0]} == {"H", "V"}

    def test_pairs_are_cross_orientation(self):
        seq = DefiningSequence.explicit(2, [(1, 1, 1)])
        for pair in crossing_relation(seq, 2):
            o = {ident[0] for ident in pair}
            assert o == {"H", "V"}


class TestCrossingIntervals:
    def test_central_ring_level1(self, fc1):
        ring = central_ring(fc1)
        hs, vs = crossing_intervals(ring, fc1, 1)
        assert len(hs) == 2 and len(vs) == 2
        assert all(iv.full for iv in hs + vs)
        assert {iv.sign for iv in hs} == {1, -1}

    def test_wrap_interval_end_past_one(self, fc1):
        # rotate the ring so a crossing straddles the parameter origin
        ring = central_ring(fc1)
        vs = list(ring.vertices)
        shifted = PolyLoop(tuple(vs[2:] + vs[:2]))
        hs, _ = crossing_intervals(shifted, fc1, 1)
        wraps = [iv for iv in hs if iv.end > 1]
        for iv in wraps:
            assert 0 <= iv.start < 1
            assert contains_param(iv, F(0))

    def test_partial_crossing_not_full(self, fc1):
        # dip into the strip from below and come back out
        loop = PolyLoop(
            (
                (F(1, 5), F(1, 5)),
                (F(1, 4), F(2, 5)),  # inside the strip, left corridor
                (F(3, 10), F(1, 5)),
            )
        )
        hs, vs = crossing_intervals(loop, fc1, 1)
        assert vs == ()
        assert [iv.full for iv in hs] == [False]


def _from_a_midpoint(loop, rng):
    """The loop with every edge halved, based at a random edge's midpoint.

    A crossing edge's midpoint is inside its strip, so the interval of
    that crossing wraps through the basepoint.
    """
    vs = []
    for p, q, _, _ in loop.edges():
        vs += [p, ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)]
    r = 2 * rng.randrange(len(loop)) + 1
    return PolyLoop(tuple(vs[r:] + vs[:r]))


def _walk_loops(seq, rng):
    """Realized walks, closed walks and zig-zags at every level, and rings."""
    loops = []
    for level in range(1, seq.depth + 1):
        hs = [c for c in corridors(seq, level) if c.orientation == "H"]
        zigzag = word_from_letters(seq, level, [(rng.choice(hs), s) for s in (1, -1)] * 3)
        for word in (
            out_and_back_word(seq, level, rng),
            closed_walk_word(seq, level, rng),
            zigzag,
        ):
            loop = realized_loop(seq, word)
            if loop is not None:
                loops.append(loop)
    if seq.pattern == "full_carpet":
        loops += [central_ring(seq), subdivided_ring(seq, 16)]
    return loops


def _random_polygons(rng, count=9):
    """Polygons with long edges every way, some axis-parallel off every line.

    Coordinates are multiples of 1/560, so no vertex is on a ternary line.
    """
    c = lambda lo=1, hi=559: F(rng.randint(lo, hi), 560)
    loops = []
    for _ in range(count):
        vs = [(c(), c()) for _ in range(rng.randint(3, 8))]
        j = rng.randrange(len(vs))
        vs[j - 1] = (vs[j - 1][0], vs[j][1])  # a horizontal edge
        loops.append(PolyLoop(tuple(vs)))
    # zig-zags across every H strip, closed by one long edge back
    for _ in range(count // 3):
        xs = sorted(rng.sample(range(1, 560), 9))
        vs = [(F(x, 560), c(1, 50) if k % 2 else c(510, 559)) for k, x in enumerate(xs)]
        loops.append(PolyLoop(tuple(vs)))
    return loops


class TestCrossingWalk:
    """crossing_intervals against the per-strip edge scan it replaced."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["full", "explicit"])
    def test_walks_match_scan(self, kind, depth):
        rng = random.Random(80 + depth)
        if kind == "full":
            seq = DefiningSequence.full_carpet(depth)
        else:
            seq = random_explicit_space(depth, rng)
        wraps = 0
        for loop in _walk_loops(seq, rng):
            halved = _from_a_midpoint(loop, rng)
            for lp in (loop, halved) if validate_loop(halved, seq, depth).ok else (loop,):
                for i in range(1, depth + 1):
                    got = crossing_intervals(lp, seq, i)
                    assert got == scan_crossing_intervals(lp, seq, i), (i, lp)
                    wraps += sum(iv.end > 1 for iv in got[0] + got[1])
        assert wraps

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_long_edges_match_scan(self, depth):
        seq = DefiningSequence.explicit(depth, [])
        rng = random.Random(90 + depth)
        wraps = 0
        for loop in _random_polygons(rng):
            if not validate_loop(loop, seq, depth).ok:
                continue
            for i in range(1, depth + 1):
                got = crossing_intervals(loop, seq, i)
                assert got == scan_crossing_intervals(loop, seq, i), (i, loop)
                wraps += sum(iv.end > 1 for iv in got[0] + got[1])
        assert wraps

    def test_edge_on_strip_line_is_degenerate(self):
        seq = DefiningSequence.explicit(2, [])
        on_h = PolyLoop(((F(1, 10), F(1, 3)), (F(1, 5), F(1, 3)), (F(1, 7), F(1, 10))))
        on_v = PolyLoop(((F(2, 9), F(1, 10)), (F(2, 9), F(1, 5)), (F(1, 10), F(1, 7))))
        on_top = PolyLoop(((F(1, 10), F(2, 3)), (F(1, 5), F(2, 3)), (F(1, 7), F(9, 10))))
        for loop, levels in ((on_h, (1, 2)), (on_v, (2,)), (on_top, (1, 2))):
            for i in levels:
                with pytest.raises(DegeneratePosition):
                    crossing_intervals(loop, seq, i)
                with pytest.raises(DegeneratePosition):
                    scan_crossing_intervals(loop, seq, i)

    @pytest.mark.parametrize("depth", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["full", "explicit"])
    def test_entry_on_corridor_end(self, kind, depth):
        # An entry crossing exactly on a corridor's end belongs to that
        # corridor, whose closed extent holds it.
        rng = random.Random(60 + depth)
        if kind == "full":
            seq = DefiningSequence.full_carpet(depth)
        else:
            seq = random_explicit_space(depth, rng)
        ends = {0: 0, 1: 0}  # entries on an even start, on an odd end
        for i in range(1, depth + 1):
            for loop in _corner_triangles(seq, i, rng, 12):
                for j in range(1, depth + 1):
                    got = crossing_intervals(loop, seq, j)
                    assert got == scan_crossing_intervals(loop, seq, j), (j, loop)
                    for iv in got[0] + got[1] if j == i else ():
                        x, y = loop.point_at(iv.start)
                        along = x if iv.corridor.orientation == "H" else y
                        for side, end in enumerate(iv.corridor.extent):
                            ends[side] += along == end
        assert ends[0] and ends[1], ends

    def test_degenerate_message(self):
        # The message names the edge's start parameter and its line.
        seq = DefiningSequence.explicit(2, [])
        square = (F(1, 10), F(1, 10))
        cases = (
            ((square, (F(1, 5), F(1, 10)), (F(1, 5), F(1, 3)), (F(1, 10), F(1, 3))), 1,
             "edge at t=1/2 lies on the line y=1/3"),
            ((square, (F(2, 9), F(1, 10)), (F(2, 9), F(1, 5))), 2,
             "edge at t=1/3 lies on the line x=2/9"),
            ((square, (F(1, 5), F(1, 10)), (F(1, 5), F(7, 9)), (F(1, 10), F(7, 9))), 2,
             "edge at t=1/2 lies on the line y=7/9"),
        )
        for vertices, i, message in cases:
            loop = PolyLoop(vertices)
            for walk in (crossing_intervals, scan_crossing_intervals):
                with pytest.raises(DegeneratePosition) as exc:
                    walk(loop, seq, i)
                assert str(exc.value) == message

    def test_axis_parallel_edge_off_strip_lines(self, fc2):
        # x = 2/9 is a line of level 2 only; y = 0 and y = 1/2 are no strip
        # line at any level.
        on_v = PolyLoop(((F(2, 9), F(1, 10)), (F(2, 9), F(1, 5)), (F(1, 10), F(1, 7))))
        on_edge = PolyLoop(((F(1, 10), F(0)), (F(1, 5), F(0)), (F(1, 7), F(1, 10))))
        for loop in (on_v, on_edge):
            assert crossing_intervals(loop, fc2, 1) == ((), ())
        seq = DefiningSequence.explicit(2, [])
        mid = PolyLoop(((F(1, 10), F(1, 2)), (F(9, 10), F(1, 2)), (F(1, 2), F(1, 10))))
        for i in (1, 2):
            got = crossing_intervals(mid, seq, i)
            assert got == scan_crossing_intervals(mid, seq, i)
            assert got[0] and got[1]


def _corner_triangles(seq, i, rng, count):
    """Small valid triangles with one edge through a corridor end on a strip line.

    The edge passes through (E/3^i, L/3^i) for a corridor end E (even
    starts, odd ends) and a line L of its strip, so some crossing of the
    strip's line lands exactly on the corridor's end.  Vertices are off
    every grid line through the space's depth.
    """
    n, big = 3**i, 7 * 3**seq.depth
    cs = [c for c in corridors(seq, i) if 0 < c.extent[0] or c.extent[1] < 1]
    loops = []
    for _ in range(100 * count if cs else 0):
        if len(loops) == count:
            break
        c = rng.choice(cs)
        e = rng.choice([x for x in c.extent if 0 < x < 1])
        line = F(2 * c.stratum - rng.randrange(2), n)
        v = (e, line) if c.orientation == "H" else (line, e)
        # Within two depth-scale cells of the corner.
        off = lambda: F(rng.choice([k for k in range(-6, 7) if k]), big)
        d = (off(), off())
        a, b = (v[0] + d[0], v[1] + d[1]), (v[0] - 2 * d[0], v[1] - 2 * d[1])
        r = (v[0] + off(), v[1] + off())
        if not all(0 < x < 1 for x in a + b + r) or len({a, b, r}) < 3:
            continue
        loop = PolyLoop((a, b, r) if rng.random() < 0.5 else (b, a, r))
        if validate_loop(loop, seq, seq.depth).ok:
            loops.append(loop)
    return loops


@functools.lru_cache(maxsize=None)
def _walk_space(kind, depth):
    """The space and loop families TestCrossingWalk draws for (kind, depth)."""
    rng = random.Random(80 + depth)
    if kind == "full":
        seq = DefiningSequence.full_carpet(depth)
    else:
        seq = random_explicit_space(depth, rng)
    return seq, _walk_loops(seq, rng)


def _outcome(f, *args):
    try:
        return f(*args)
    except RefinementViolation as e:
        return str(e)


def _refinement_breaches(coarse, fine, seq, rng):
    """Fine words that break refinement in each way refinement_map reports."""
    out = []
    letters = list(fine.letters)
    if letters:
        k = rng.randrange(len(letters))
        out.append(letters[:k] + letters[k + 1 :])  # a letter lost
        l = letters[k]
        out.append(letters[:k] + [Letter(l.corridor, -l.sign, l.interval)] + letters[k + 1 :])
        out.append(letters[1:] + letters[:1])  # rotated: every index moves
    others = corridors(seq, fine.level)
    for parent in coarse.letters[:2]:
        # A stray copy of a letter of the entry substratum, strictly inside
        # the parent's interval, and a first sub-letter moved to a corridor
        # outside the parent's extent.
        mid = (parent.interval.start + parent.interval.end) / 2
        s = 3 * parent.corridor.stratum - (1 if parent.sign > 0 else 0)
        subs = [c for c in others if c.orientation == parent.corridor.orientation and c.stratum == s]
        iv = CrossingInterval(mid, mid + F(1, 10**6), subs[0], parent.sign)
        k = rng.randrange(len(letters) + 1)
        out.append(letters[:k] + [Letter(subs[0], parent.sign, iv)] + letters[k:])
        outside = [c for c in subs if c.extent[1] < parent.corridor.extent[0]
                   or c.extent[0] > parent.corridor.extent[1]]
        for k, l in enumerate(letters):
            if outside and l.corridor.stratum == s and l.interval.start == parent.interval.start:
                iv = CrossingInterval(l.interval.start, l.interval.end, outside[0], l.sign)
                moved = Letter(outside[0], l.sign, iv)
                out.append(letters[:k] + [moved] + letters[k + 1 :])
                break
    return [CyclicWord(fine.level, tuple(ls), fine.commutes) for ls in out]


class TestWordLocal:
    """Words from the crossed strips against the whole-level oracles."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["full", "explicit"])
    def test_words_match_whole_level(self, kind, depth):
        seq, loops = _walk_space(kind, depth)
        pairs = 0
        for i in range(1, depth + 1):
            whole = scan_crossing_relation(seq, i)
            assert crossing_relation(seq, i) == whole
            for loop in loops:
                word = encode_word(loop, seq, i)
                present = {l.generator for l in word.letters}
                assert word.commutes == frozenset(p for p in whole if p <= present)
                assert word == scan_encode_word(loop, seq, i, whole), (i, loop)
                pairs += len(word.commutes)
        assert pairs or kind == "full"

    @pytest.mark.parametrize("depth", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["full", "explicit"])
    def test_refinement_matches_scan(self, kind, depth):
        seq, loops = _walk_space(kind, depth)
        rng = random.Random(depth)
        breaches = {"lacks": 0, "extends outside": 0, "strictly inside": 0}
        for loop in loops:
            ws = [encode_word(loop, seq, i) for i in range(1, depth + 1)]
            for coarse, fine in zip(ws, ws[1:]):
                got = refinement_map(coarse, fine)
                assert got == scan_refinement_map(coarse, fine)
                if fine.level > 4:
                    continue  # the scan is quadratic; level-5 words are long
                for broken in _refinement_breaches(coarse, fine, seq, rng):
                    got = _outcome(refinement_map, coarse, broken)
                    assert got == _outcome(scan_refinement_map, coarse, broken)
                    for name in breaches:
                        breaches[name] += isinstance(got, str) and name in got
        assert all(breaches.values()), breaches

    def test_no_whole_level_build(self):
        # A fresh space, so its memo holds only what this loop's words built.
        seq = DefiningSequence.explicit(4, [(1, 1, 1), (2, 1, 4), (3, 1, 13), (4, 1, 30)])
        band = (  # an L-shaped band along the bottom and right sides
            (F(1, 20), F(1, 20)), (F(19, 20), F(1, 20)), (F(19, 20), F(19, 20)),
            (F(9, 10), F(19, 20)), (F(9, 10), F(1, 10)), (F(1, 20), F(1, 10)),
        )
        loop = PolyLoop(band)
        verdict = decide(loop, seq)
        assert isinstance(verdict, TrivialUpTo) and verdict.conclusive
        assert [len(encode_word(loop, seq, i)) for i in range(1, 5)] == [4, 16, 44, 144]
        # The strips whose lines some edge crosses, at every level.
        crossed = set()
        for i in range(1, 5):
            n = 3**i
            for p, q, _, _ in loop.edges():
                for orientation, axis in (("H", 1), ("V", 0)):
                    lo, hi = sorted((p[axis] * n, q[axis] * n))
                    for j in range(math.floor(lo) + 1, math.ceil(hi)):
                        crossed.add((orientation, i, (j + 1) // 2))
        builds = [key[0] for key in seq._derived]
        assert words.crossing_relation.__wrapped__ not in builds
        strips = {key[1:] for key in seq._derived if key[0] is grid._strip.__wrapped__}
        assert strips == crossed
        assert len(strips) < sum(3**i - 1 for i in range(1, 5))  # not every strip


class TestEncode:
    def test_central_ring_frozen(self, fc1):
        w = encode_word(central_ring(fc1), fc1, 1)
        assert w.text == "V:1:1:0/1+ H:1:1:2/3+ V:1:1:2/3- H:1:1:0/1-"
        assert w.commutes == frozenset()

    def test_central_ring_level2_frozen(self, fc2):
        w = encode_word(central_ring(fc2), fc2, 2)
        assert w.text == (
            "V:2:2:2/9+ V:2:3:2/9+ H:2:2:2/3+ H:2:3:2/3+ "
            "V:2:3:2/3- V:2:2:2/3- H:2:3:2/9- H:2:2:2/9-"
        )

    def test_reversed_ring_is_inverse(self, fc1):
        w = encode_word(central_ring(fc1), fc1, 1)
        r = encode_word(central_ring(fc1).reversed_loop(), fc1, 1)
        fw = [(l.generator, l.sign) for l in w.letters]
        bw = [(l.generator, -l.sign) for l in reversed(r.letters)]
        # same cyclic sequence
        n = len(fw)
        assert any(bw[k:] + bw[:k] == fw for k in range(n))

    def test_corner_tie_writes_h_first(self):
        # The diagonal enters the H and the V strip at the same parameter.
        seq = DefiningSequence.explicit(1, [])
        loop = PolyLoop(((F(5, 6), F(1, 6)), (F(1, 6), F(5, 6)), (F(5, 6), F(5, 6))))
        w = encode_word(loop, seq, 1)
        assert w.text == "H:1:1:0/1+ V:1:1:0/1- V:1:1:0/1+ H:1:1:0/1-"
        assert w.letters[0].interval.start == w.letters[1].interval.start

    def test_empty_word_away_from_strips(self, fc1):
        tri = PolyLoop(((F(1, 10), F(1, 10)), (F(1, 5), F(1, 10)), (F(1, 10), F(1, 5))))
        w = encode_word(tri, fc1, 1)
        assert len(w) == 0


class TestRefinement:
    def test_central_ring_refinement(self, fc2):
        ring = central_ring(fc2)
        corr = refinement_map(encode_word(ring, fc2, 1), encode_word(ring, fc2, 2))
        assert corr.coarse_word.text == encode_word(ring, fc2, 1).text
        assert corr.fine_word.text == encode_word(ring, fc2, 2).text
        assert len(corr.ends) == len(corr.coarse_word)
        for j, (first, last) in enumerate(corr.ends):
            cl = corr.coarse_word.letters[j]
            fl_first = corr.fine_word.letters[first]
            fl_last = corr.fine_word.letters[last]
            assert fl_first.sign == cl.sign
            assert fl_last.sign == cl.sign
            assert fl_first.interval.start == cl.interval.start
            # entry substratum: lower for positive, upper for negative
            expect_first = 3 * cl.corridor.stratum - (1 if cl.sign > 0 else 0)
            expect_last = 3 * cl.corridor.stratum - (0 if cl.sign > 0 else 1)
            assert fl_first.corridor.stratum == expect_first
            assert fl_last.corridor.stratum == expect_last

    def test_roles_partition(self, fc3):
        rng = random.Random(21)
        done = 0
        while done < 6:
            word = closed_walk_word(fc3, 2, rng)
            loop = realized_loop(fc3, word)
            if loop is None:
                continue
            corr = refinement_map(encode_word(loop, fc3, 2), encode_word(loop, fc3, 3))
            firsts = {f for f, _ in corr.ends}
            lasts = {l for _, l in corr.ends}
            assert len(firsts) == len(corr.ends)
            assert len(lasts) == len(corr.ends)
            for j, (f, l) in enumerate(corr.ends):
                assert role_of_fine(corr, f) == (j, "first")
                assert role_of_fine(corr, l) == (j, "last")
            free = free_fine_letters(corr)
            assert set(free).isdisjoint(firsts | lasts)
            assert len(free) + len(firsts) + len(lasts) == len(corr.fine_word)
            done += 1

    def test_refinement_needs_consecutive_levels(self, fc3):
        ring = central_ring(fc3)
        w1, w2, w3 = (encode_word(ring, fc3, i) for i in (1, 2, 3))
        assert refinement_map(w1, w2).fine_word.level == 2
        with pytest.raises(ValueError):
            refinement_map(w1, w3)
        with pytest.raises(ValueError):
            refinement_map(w2, w1)


class TestRealize:
    def test_out_and_back_routes(self, fc3):
        rng = random.Random(3)
        for _ in range(10):
            word = out_and_back_word(fc3, 2, rng)
            loop = realize_word(word, fc3)
            assert validate_loop(loop, fc3, 3).ok

    def test_round_trip_cyclic_equal(self, fc3):
        rng = random.Random(5)
        done = 0
        while done < 15:
            word = closed_walk_word(fc3, 2, rng)
            loop = realized_loop(fc3, word)
            if loop is None:
                continue
            again = encode_word(loop, fc3, 2)
            assert cyclically_equal(again, word), (word.text, again.text)
            done += 1

    def test_empty_word_triangle(self, fc3):
        w = word_from_letters(fc3, 1, [])
        loop = realize_word(w, fc3)
        assert len(loop) == 3
        assert validate_loop(loop, fc3, 3).ok
        assert len(encode_word(loop, fc3, 1)) == 0

    def test_empty_word_triangle_odd_cell(self, fc3):
        w = word_from_letters(fc3, 1, [])
        loop = realize_word(w, fc3, basepoint_cell=(1, 0))
        assert validate_loop(loop, fc3, 3).ok

    def test_empty_word_removed_basepoint(self, fc3):
        w = word_from_letters(fc3, 1, [])
        with pytest.raises(Unroutable):
            realize_word(w, fc3, basepoint_cell=(1, 1))

    def test_single_letter_unroutable(self, fc2):
        c = [c for c in corridors(fc2, 1) if c.orientation == "H"][0]
        w = word_from_letters(fc2, 1, [(c, 1)])
        with pytest.raises(Unroutable):
            realize_word(w, fc2)

    def test_cross_pair_unroutable(self, fc2):
        h = [c for c in corridors(fc2, 1) if c.orientation == "H"][0]
        v = [c for c in corridors(fc2, 1) if c.orientation == "V"][0]
        w = word_from_letters(fc2, 1, [(h, 1), (v, 1)])
        with pytest.raises(Unroutable):
            realize_word(w, fc2)

    def test_mismatched_strata_unroutable(self, fc3):
        hs = [c for c in corridors(fc3, 2) if c.orientation == "H"]
        a = [c for c in hs if c.stratum == 1][0]
        b = [c for c in hs if c.stratum == 4][0]
        w = word_from_letters(fc3, 2, [(a, 1), (b, -1)])
        with pytest.raises(Unroutable):
            realize_word(w, fc3)

    @given(st.integers(0, 3), st.integers(0, 3))
    @settings(**HSETTINGS)
    def test_realized_vertices_off_grid_lines(self, sa, sb):
        seq = DefiningSequence.full_carpet(3)
        rng = random.Random(1000 + 7 * sa + sb)
        word = out_and_back_word(seq, 2, rng)
        loop = realize_word(word, seq)
        rep = validate_loop(loop, seq, 3)
        assert rep.ok, rep.first
