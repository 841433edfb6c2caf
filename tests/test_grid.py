"""Squares, spaces, corridors, and loop validation."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from carpetloop import (
    Corridor,
    DefiningSequence,
    GridSquare,
    LevelOutOfRange,
    PolyLoop,
    corridors,
    eligible_squares,
    validate_loop,
)

from carpetloop.grid import _corridor_at

from conftest import (
    closed_walk_word,
    corridor_by_id,
    fraction_point_at,
    inner_contains,
    level_space_contains,
    random_explicit_space,
    realized_loop,
)

pytestmark = []

HSETTINGS = dict(derandomize=True, deadline=None, max_examples=120)


class TestEligibility:
    # frozen counts, re-derived by the brute-force oracle in conftest
    @pytest.mark.parametrize("level,count", [(1, 1), (2, 12), (3, 96)])
    def test_frozen_counts(self, level, count):
        seq = DefiningSequence.full_carpet(level)
        assert len(eligible_squares(seq, level)) == count

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_matches_brute_force(self, level):
        from conftest import brute_eligible

        seq = DefiningSequence.full_carpet(level)
        got = {(q.k, q.m) for q in eligible_squares(seq, level)}
        assert got == brute_eligible(level)

    def test_dense_level2_example(self):
        # the level-2 candidate below the central square is NOT inside it
        seq = DefiningSequence.full_carpet(2)
        assert (2, 1) in {(q.k, q.m) for q in eligible_squares(seq, 2)}

    def test_explicit_rejects_ineligible(self):
        with pytest.raises(ValueError):
            DefiningSequence.explicit(2, [(2, 3, 3)])  # inside the central square

    def test_explicit_rejects_too_deep(self):
        with pytest.raises(ValueError):
            DefiningSequence.explicit(1, [(2, 1, 1)])

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_explicit_accepts_exactly_brute_eligible(self, level):
        from conftest import brute_eligible

        eligible = brute_eligible(level)
        half = (3**level - 1) // 2
        for k in range(1, half + 1):
            for m in range(1, half + 1):
                if (k, m) in eligible:
                    DefiningSequence.explicit(level, [(level, k, m)])
                else:
                    with pytest.raises(ValueError):
                        DefiningSequence.explicit(level, [(level, k, m)])

    def test_explicit_checks_each_square_alone(self):
        from carpetloop.grid import _eligible_at

        calls = _eligible_at.cache_info()[:2]  # hits, misses
        DefiningSequence.explicit(6, [(6, 1, 1)])
        assert _eligible_at.cache_info()[:2] == calls


class TestContainment:
    def test_point_inside_central(self, fc2):
        assert fc2.point_in_removed_interior((F(1, 2), F(1, 2)), 1)

    def test_point_in_level2_hole(self, fc2):
        # (1/6, 1/6) sits inside the removed square at level 2, k=m=1
        assert fc2.point_in_removed_interior((F(1, 6), F(1, 6)), 2)
        assert not fc2.point_in_removed_interior((F(1, 6), F(1, 6)), 1)

    def test_point_on_boundary_not_interior(self, fc2):
        assert not fc2.point_in_removed_interior((F(1, 3), F(1, 2)), 2)

    def test_kept_point(self, fc2):
        assert not fc2.point_in_removed_interior((F(1, 6), F(1, 2)), 2)
        assert level_space_contains(fc2, 2, (F(1, 6), F(1, 2)))

    def test_outside_unit_square_raises(self, fc2):
        with pytest.raises(ValueError):
            level_space_contains(fc2, 1, (F(2), F(1, 2)))

    @given(
        x=st.fractions(min_value=0, max_value=1),
        y=st.fractions(min_value=0, max_value=1),
    )
    @settings(**HSETTINGS)
    def test_digit_test_matches_square_scan(self, x, y):
        # the index lookup must agree with literal square tests
        from conftest import scan_point_in_removed_interior

        seq = DefiningSequence.full_carpet(3)
        for i in (1, 2, 3):
            literal = scan_point_in_removed_interior(seq.removed, (x, y), i)
            assert seq.point_in_removed_interior((x, y), i) == literal

    @given(st.integers(0, 26), st.integers(0, 26))
    @settings(**HSETTINGS)
    def test_cell_test_matches_point_test(self, a, b):
        seq = DefiningSequence.full_carpet(3)
        center = (F(2 * a + 1, 54), F(2 * b + 1, 54))
        assert seq.cell_in_space(a, b, 3) == (
            not seq.point_in_removed_interior(center, 3)
        )


class TestCorridors:
    def test_frozen_level2_census(self, fc2):
        cs = corridors(fc2, 2)
        assert len(cs) == 36
        h_counts = {}
        for c in cs:
            if c.orientation == "H":
                h_counts[c.stratum] = h_counts.get(c.stratum, 0) + 1
        assert h_counts == {1: 5, 2: 4, 3: 4, 4: 5}

    def test_level1_has_two_per_orientation(self, fc1):
        cs = corridors(fc1, 1)
        assert len(cs) == 4
        assert {c.extent for c in cs if c.orientation == "H"} == {
            (F(0), F(1, 3)),
            (F(2, 3), F(1)),
        }

    def test_no_holes_means_full_extent(self):
        seq = DefiningSequence.explicit(1, [])
        cs = corridors(seq, 1)
        assert len(cs) == 2
        assert all(c.extent == (F(0), F(1)) for c in cs)

    def test_corridor_by_id_roundtrip(self, fc2):
        for c in corridors(fc2, 2):
            assert corridor_by_id(fc2, c.id) == c

    def test_corridor_lookup_holds_closed_extents(self, fc3):
        # A coordinate is x when exact and strictly between x and x + 1
        # otherwise: each end belongs to its corridor, the unit past an
        # end (inside a block) to none.
        for c in corridors(fc3, 3):
            (e0, e1), n = c.extent_units(), 27
            at = lambda x, exact: _corridor_at(fc3, c.orientation, 3, c.stratum, x, exact)
            assert at(e0, True) == at(e0, False) == at(e1 - 1, False) == at(e1, True) == c
            assert at(e1, False) is None
            assert e0 == 0 or at(e0 - 1, False) is None
            if e1 < n:
                with pytest.raises(KeyError):
                    corridor_by_id(fc3, (*c.id[:3], F(2 * e1 + 1, 2 * n)))

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_extent_parity_invariant(self, level, fc3):
        # extents start on even grid units and end on odd ones
        for c in corridors(fc3, level):
            e0, e1 = c.extent_units()
            assert e0 % 2 == 0 and e1 % 2 == 1

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_every_stratum_inhabited(self, level, fc3):
        per = {}
        for c in corridors(fc3, level):
            per.setdefault((c.orientation, c.stratum), []).append(c)
        n = (3**level - 1) // 2
        assert set(per) == {
            (o, s) for o in "HV" for s in range(1, n + 1)
        }

    def test_matches_kept_cell_runs(self, fc2):
        # independent oracle: corridor components of a horizontal strip
        # are exactly the maximal runs of kept cells along its odd row
        for m in range(1, 5):
            row = 2 * m - 1
            runs = []
            run = None
            for a in range(9):
                if fc2.cell_in_space(a, row, 2):
                    run = a if run is None else run
                else:
                    if run is not None:
                        runs.append((F(run, 9), F(a, 9)))
                    run = None
            if run is not None:
                runs.append((F(run, 9), F(1)))
            got = sorted(
                c.extent
                for c in corridors(fc2, 2)
                if c.orientation == "H" and c.stratum == m
            )
            assert got == sorted(runs)

    def test_inner_contains(self, fc1):
        c = [c for c in corridors(fc1, 1) if c.orientation == "H"][0]
        x0, x1 = c.extent
        y0, y1 = c.transverse
        assert inner_contains(c, (x0, (y0 + y1) / 2))
        assert not inner_contains(c, ((x0 + x1) / 2, y0))


class TestLoops:
    def test_rejects_vertex_outside(self):
        with pytest.raises(ValueError):
            PolyLoop(((F(0), F(0)), (F(2), F(1, 2)), (F(1, 2), F(1, 2))))

    def test_point_at_wraps(self):
        loop = PolyLoop(((F(1, 5), F(1, 5)), (F(2, 5), F(1, 5)), (F(2, 5), F(2, 5))))
        assert loop.point_at(F(0)) == (F(1, 5), F(1, 5))
        assert loop.point_at(F(4, 3)) == loop.point_at(F(1, 3))

    def test_point_at_matches_fraction_oracle(self, fc3):
        # Loops realized on a full carpet and on random explicit spaces, at
        # vertex parameters, between them, below 0 and from 1 up.
        rng = random.Random(107)
        loops = []
        for seq in (fc3, random_explicit_space(3, rng), random_explicit_space(3, rng, keep=0.3)):
            drawn = len(loops) + 4
            while len(loops) < drawn:
                loop = realized_loop(seq, closed_walk_word(seq, 3, rng, wander=6))
                if loop is not None:
                    loops.append(loop)
        for loop in loops:
            n = len(loop)
            ts = [F(j, n) + k for j in range(n) for k in (-2, -1, 0, 1, 3)]
            for _ in range(200):
                den = rng.randint(1, 10 ** rng.randint(1, 9))
                ts.append(F(rng.randint(-3 * den, 3 * den), den))
            for t in ts:
                assert loop.point_at(t) == fraction_point_at(loop, t), (loop, t)

    def test_validate_empty_is_not_closed(self, fc1):
        rep = validate_loop(PolyLoop(()), fc1, 1)
        assert not rep.ok and rep.first.kind == "NotClosed"

    def test_validate_degenerate_edge(self, fc1):
        loop = PolyLoop(((F(1, 5), F(1, 5)), (F(1, 5), F(1, 5)), (F(2, 5), F(1, 5))))
        rep = validate_loop(loop, fc1, 1)
        assert not rep.ok and rep.first.kind == "DegenerateEdge"

    def test_validate_vertex_on_line(self, fc1):
        loop = PolyLoop(((F(1, 3), F(1, 5)), (F(2, 5), F(4, 5)), (F(1, 7), F(2, 5))))
        rep = validate_loop(loop, fc1, 1)
        assert not rep.ok and rep.first.kind == "VertexOnGridLine"

    def test_validate_edge_in_hole(self, fc2):
        # the classic square ring is fine at depth 1 but dies at depth 2
        ring = PolyLoop(
            ((F(1, 6), F(1, 6)), (F(5, 6), F(1, 6)), (F(5, 6), F(5, 6)), (F(1, 6), F(5, 6)))
        )
        assert validate_loop(ring, fc2, 1).ok
        rep = validate_loop(ring, fc2, 2)
        assert not rep.ok and rep.first.kind == "EdgeInHole"
        assert rep.first.square == GridSquare(2, 1, 1)

    def test_validate_good_loop(self, fc2):
        from carpetloop import central_ring

        assert validate_loop(central_ring(fc2), fc2, 2).ok

    def test_level_bounds(self, fc2):
        with pytest.raises(LevelOutOfRange):
            corridors(fc2, 3)
        with pytest.raises(LevelOutOfRange):
            corridors(fc2, 0)
