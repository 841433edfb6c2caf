"""Puncture words, winding, reduction, and the bonding thread."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from carpetloop import (
    DegeneratePosition,
    DefiningSequence,
    FreeWord,
    GridSquare,
    PolyLoop,
    bonding_map,
    central_ring,
    punctures,
    puncture_word,
    shape_image,
    winding_vector,
)
from carpetloop.freegroup import _ray_crossings, reduce as free_reduce

from conftest import (
    closed_walk_word,
    out_and_back_word,
    random_explicit_space,
    realized_loop,
    scan_ray_crossings,
    word_from_letters,
)

HSETTINGS = dict(derandomize=True, deadline=None, max_examples=80)


def _naive_reduce(letters):
    out = []
    for l in letters:
        if out and out[-1][0] == l[0] and out[-1][1] == -l[1]:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


class TestReduce:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from([1, -1])),
            max_size=16,
        )
    )
    @settings(**HSETTINGS)
    def test_matches_naive_stack(self, letters):
        # generators here are plain labels; reduction is label-agnostic
        word = FreeWord(tuple(letters))
        assert free_reduce(word).letters == _naive_reduce(letters)

    def test_inverse_cancels(self):
        sq = GridSquare(1, 1, 1)
        w = FreeWord(((sq, 1), (sq, 1), (sq, -1)))
        assert free_reduce(w.concat(w.inverse())).is_identity

    def test_text_exponents(self):
        sq = GridSquare(2, 3, 1)
        w = FreeWord(((sq, 1), (sq, 1), (sq, -1)))
        assert free_reduce(w).text == "g[2,3,1]"
        assert FreeWord(((sq, -1), (sq, -1))).text == "g[2,3,1]^-2"


class TestPunctures:
    def test_ordered_and_stable(self, fc2):
        ps = punctures(fc2, 2)
        keys = [p.hole.key() for p in ps]
        assert keys == sorted(keys)
        # appending levels extends, never reorders
        ps1 = punctures(fc2, 1)
        assert [p.hole for p in ps1] == [p.hole for p in ps[: len(ps1)]]
        assert [p.ray for p in ps1] == [p.ray for p in ps[: len(ps1)]]

    def test_rays_parallel_and_disjoint(self, fc2):
        ps = punctures(fc2, 2)
        assert len({p.ray for p in ps}) == 1
        dx, dy = ps[0].ray
        # no center sits on another's ray, so the cuts never touch
        for a in ps:
            for b in ps:
                if a is b:
                    continue
                ax, ay = a.center
                bx, by = b.center
                assert dx * (by - ay) - dy * (bx - ax) != 0


class TestPunctureWord:
    def test_central_ring_winding(self, fc1):
        w = puncture_word(central_ring(fc1), fc1, 1)
        assert w.text == "g[1,1,1]"

    def test_reversed_gives_inverse(self, fc1):
        w = puncture_word(central_ring(fc1).reversed_loop(), fc1, 1)
        assert w.text == "g[1,1,1]^-1"

    def test_commutator_zero_winding_nontrivial(self):
        # two punctures at depth 1: the central square, plus a level-2
        # square in an explicit pattern at depth 2
        seq = DefiningSequence.explicit(2, [(1, 1, 1), (2, 1, 1)])
        # a loop realizing a commutator of the two generators would have
        # zero winding; simulate with a formal word and check reduction
        a, b = GridSquare(1, 1, 1), GridSquare(2, 1, 1)
        w = FreeWord(((a, 1), (b, 1), (a, -1), (b, -1)))
        red = free_reduce(w)
        assert not red.is_identity
        wind = {}
        for g, e in red.letters:
            wind[g] = wind.get(g, 0) + e
        assert all(v == 0 for v in wind.values())

    def test_winding_vector_matches_exponents(self, fc2):
        rng = random.Random(11)
        done = 0
        while done < 6:
            word = closed_walk_word(fc2, 2, rng)
            loop = realized_loop(fc2, word, ray_levels=(1, 2))
            if loop is None:
                continue
            for i in (1, 2):
                w = puncture_word(loop, fc2, i)
                wind = winding_vector(loop, fc2, i)
                per = {}
                for g, e in w.letters:
                    per[g] = per.get(g, 0) + e
                for hole, count in wind.items():
                    assert per.get(hole, 0) == count
                for hole, count in per.items():
                    assert wind.get(hole, 0) == count
            done += 1

    def test_vertex_on_ray_degenerate(self, fc1):
        # the ray from (1/2, 1/2) has direction (9, -1); park a vertex on it
        bad = PolyLoop(((F(3, 4), F(17, 36)), (F(5, 6), F(17, 36)), (F(3, 4), F(5, 12))))
        with pytest.raises(DegeneratePosition):
            puncture_word(bad, fc1, 1)

    def test_loop_in_corner_trivial(self, fc1):
        tri = PolyLoop(((F(1, 10), F(1, 10)), (F(1, 5), F(1, 10)), (F(1, 10), F(1, 5))))
        assert puncture_word(tri, fc1, 1).is_identity


class TestBonding:
    def test_deletes_deepest_letters(self):
        a, b = GridSquare(1, 1, 1), GridSquare(2, 1, 1)
        w = FreeWord(((a, 1), (b, 1), (a, -1), (b, -1)))
        img = bonding_map(w, 2)
        assert img.is_identity

    def test_thread_on_realized_loops(self, fc3):
        rng = random.Random(13)
        done = 0
        while done < 5:
            word = closed_walk_word(fc3, 2, rng)
            loop = realized_loop(fc3, word, ray_levels=(1, 2, 3))
            if loop is None:
                continue
            images = shape_image(loop, fc3, 3)
            assert len(images) == 3
            for i, w in enumerate(images, start=1):
                assert w == puncture_word(loop, fc3, i)
            done += 1


def _events_or_error(fn):
    try:
        return fn()
    except DegeneratePosition as e:
        return ("DegeneratePosition", str(e))


def _assert_matches_scan(loop, seq):
    """Same events in the same order, or the same exception, at every level."""
    for i in range(1, seq.depth + 1):
        old = _events_or_error(
            lambda: [(j, pi, s) for j, _, pi, s in scan_ray_crossings(loop, seq, i)]
        )
        new = _events_or_error(lambda: _ray_crossings(loop, seq, i))
        assert new == old, (i, loop.vertices)
        if isinstance(old, list):
            wind = {p.hole: 0 for p in punctures(seq, i)}
            for _, pi, s in old:
                wind[punctures(seq, i)[pi].hole] += s
            assert winding_vector(loop, seq, i) == wind


def _ring_around(seq, sq):
    """A square half a depth-cell outside a removed square."""
    eps = F(1, 2 * 3**seq.depth)
    (x0, x1), (y0, y1) = sq.x_interval, sq.y_interval
    x0, x1, y0, y1 = x0 - eps, x1 + eps, y0 - eps, y1 + eps
    return PolyLoop(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))


def _sample_loops(seq, rng, per_shape):
    """Walks, closed walks, zig-zags and rings, realized where routable."""
    loops = [central_ring(seq)]
    holes = [sq for s in range(1, seq.depth + 1) for sq in seq.holes_at_level(s)]
    loops += [_ring_around(seq, sq) for sq in rng.sample(holes, min(per_shape, len(holes)))]

    def zigzag(level):
        walk = out_and_back_word(seq, level, rng)
        return word_from_letters(seq, level, [(l.corridor, l.sign) for l in walk.letters] * 2)

    for build in (
        lambda level: out_and_back_word(seq, level, rng),
        lambda level: closed_walk_word(seq, level, rng),
        zigzag,
    ):
        made = tries = 0
        while made < per_shape and tries < 20 * per_shape:
            tries += 1
            loop = realized_loop(seq, build(rng.randint(1, min(seq.depth, 3))))
            if loop is not None:
                loops.append(loop)
                made += 1
    return loops


SPACES = [("full", d) for d in range(1, 6)] + [("explicit", d) for d in range(1, 6)]


class TestRayCrossingsMatchScan:
    """The sorted-key kernel against the scan of every puncture and edge."""

    @pytest.mark.parametrize("kind,depth", SPACES, ids=[f"{k}-{d}" for k, d in SPACES])
    def test_sampled_loops(self, kind, depth):
        rng = random.Random(f"rays:{kind}:{depth}")
        if kind == "full":
            seq = DefiningSequence.full_carpet(depth)
        else:
            seq = random_explicit_space(depth, rng)
        for loop in _sample_loops(seq, rng, per_shape=2 if depth == 5 else 3):
            _assert_matches_scan(loop, seq)

    # The level-1 hole's center is (1/2, 1/2) and its ray runs along
    # (9, -1) at depth 1; t * (1/36) * (9, -1) from the center is at
    # (1/2 + t/4, 1/2 - t/36).
    @pytest.mark.parametrize(
        "verts,message",
        [
            # a vertex on the forward ray
            (((F(3, 4), F(17, 36)), (F(5, 6), F(17, 36)), (F(3, 4), F(5, 12))),
             "a vertex of edge 0 lies on the ray of (1, 1, 1)"),
            # an edge along the forward ray; edge 1 also starts on it,
            # and the report names the first edge
            (((F(3, 4), F(17, 36)), (F(7, 8), F(11, 24)), (F(7, 8), F(3, 4))),
             "edge 0 is collinear with the ray of (1, 1, 1)"),
            # an edge along the backward extension: not degenerate
            (((F(1, 4), F(19, 36)), (F(3, 8), F(37, 72)), (F(3, 4), F(1, 4)), (F(3, 4), F(3, 4))),
             None),
            # a vertex on the backward extension, edge pointing right and
            # down past the center's line: not degenerate
            (((F(1, 4), F(19, 36)), (F(3, 4), F(1, 4)), (F(3, 4), F(5, 6))), None),
            # an edge through the center along the ray's line
            (((F(1, 4), F(19, 36)), (F(3, 4), F(17, 36)), (F(3, 4), F(3, 4))),
             "edge 0 is collinear with the ray of (1, 1, 1)"),
        ],
        ids=["vertex-forward", "edge-forward", "edge-backward", "vertex-backward", "edge-through"],
    )
    def test_crafted_depth1(self, fc1, verts, message):
        loop = PolyLoop(verts)
        _assert_matches_scan(loop, fc1)
        got = _events_or_error(lambda: _ray_crossings(loop, fc1, 1))
        if message is None:
            assert isinstance(got, list)
        else:
            assert got == ("DegeneratePosition", message)

    def test_first_puncture_reported(self, fc2):
        # Edge 0 starts on the ray of the level-2 hole (2, 1, 1), and
        # edge 1 ends on the ray of the level-1 hole (1, 1, 1): the report
        # names the puncture that comes first, as a puncture-major scan does.
        t = F(1, 27 * 2 * 9)  # a step along the rays' direction (27, -1)
        on2 = (GridSquare(2, 1, 1).center[0] + 27 * t, GridSquare(2, 1, 1).center[1] - t)
        on1 = (GridSquare(1, 1, 1).center[0] + 27 * t, GridSquare(1, 1, 1).center[1] - t)
        loop = PolyLoop((on2, (F(1, 20), F(19, 20)), on1, (F(19, 20), F(1, 20))))
        _assert_matches_scan(loop, fc2)
        got = _events_or_error(lambda: _ray_crossings(loop, fc2, 2))
        assert got == ("DegeneratePosition", "a vertex of edge 1 lies on the ray of (1, 1, 1)")
