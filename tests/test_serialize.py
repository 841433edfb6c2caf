"""Text and JSON formats: exactness, canonical hashing, and rejection paths."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from carpetloop import (
    CancellationDiagram,
    DefiningSequence,
    FreeWord,
    GridSquare,
    central_ring,
    corridors,
    encode_word,
    puncture_word,
)
from carpetloop.serialize import (
    FormatError,
    canonical_json,
    diagram_to_json,
    frac_text,
    loop_from_json,
    loop_hash,
    loop_to_json,
    parse_frac,
    scheme_to_json,
    sha256_hex,
    space_from_json,
    space_hash,
    space_to_json,
)

from conftest import (
    closed_walk_word,
    parse_free_word,
    parse_word,
    realized_loop,
    word_from_letters,
)

HSETTINGS = dict(derandomize=True, deadline=None, max_examples=80)

fractions_st = st.fractions(min_value=-100, max_value=100, max_denominator=10_000)


class TestFractions:
    def test_text_always_carries_denominator(self):
        assert frac_text(F(1, 3)) == "1/3"
        assert frac_text(F(2)) == "2/1"
        assert frac_text(F(-5, 6)) == "-5/6"
        assert frac_text(F(0)) == "0/1"

    @given(x=fractions_st)
    @settings(**HSETTINGS)
    def test_round_trip_is_exact(self, x):
        assert parse_frac(frac_text(x)) == x

    @pytest.mark.parametrize("bad", ["", "x", "1/2/3", "1/0", "2.5.1"])
    def test_bad_rationals_rejected(self, bad):
        with pytest.raises(FormatError):
            parse_frac(bad)


class TestCanonicalJson:
    def test_sorted_keys_no_whitespace(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_insertion_order_does_not_matter(self):
        one = {"x": 1, "y": [2, {"b": 3, "a": 4}]}
        two = {"y": [2, {"a": 4, "b": 3}], "x": 1}
        assert sha256_hex(canonical_json(one)) == sha256_hex(canonical_json(two))

    def test_sha256_of_empty_string(self):
        # pinned so the hash scheme cannot drift silently
        assert (
            sha256_hex("")
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )


class TestSpaces:
    def test_full_carpet_round_trip(self, fc2):
        data = space_to_json(fc2)
        assert data["depth"] == 2
        assert data["pattern"] == "full_carpet"
        assert len(data["removed"]) == 13  # 1 coarse hole plus 12 fine ones
        back = space_from_json(data)
        assert back.removed == fc2.removed
        assert space_hash(back) == space_hash(fc2)

    def test_removed_list_is_sorted_and_json_safe(self, fc3):
        data = space_to_json(fc3)
        assert data["removed"] == sorted(data["removed"])
        json.dumps(data)  # nothing non-serializable leaks through

    def test_full_carpet_without_removed_key(self, fc1):
        back = space_from_json({"depth": 1, "pattern": "full_carpet"})
        assert back == fc1

    def test_full_carpet_with_tampered_removed(self, fc2):
        data = space_to_json(fc2)
        data["removed"] = data["removed"][:-1]
        with pytest.raises(FormatError, match="disagrees"):
            space_from_json(data)

    def test_explicit_round_trip(self):
        seq = DefiningSequence.explicit(2, [(1, 1, 1), (2, 1, 3)])
        back = space_from_json(space_to_json(seq))
        assert back == seq
        assert space_hash(back) == space_hash(seq)

    def test_explicit_empty_round_trip(self):
        seq = DefiningSequence.explicit(1, [])
        assert space_from_json(space_to_json(seq)) == seq

    def test_unknown_pattern(self):
        with pytest.raises(FormatError, match="unknown pattern"):
            space_from_json({"depth": 1, "pattern": "moth-eaten"})

    def test_missing_depth(self):
        with pytest.raises(FormatError, match="bad space object"):
            space_from_json({"pattern": "full_carpet"})

    def test_bad_removed_entries(self):
        with pytest.raises(FormatError):
            space_from_json({"depth": 1, "pattern": "explicit", "removed": [["x"]]})

    def test_ineligible_hole_rejected(self):
        with pytest.raises(FormatError):
            space_from_json({"depth": 1, "pattern": "explicit", "removed": [[1, 2, 1]]})

    def test_hashes_separate_spaces(self, fc1, fc2):
        assert space_hash(fc1) != space_hash(fc2)
        assert space_hash(fc1) != space_hash(DefiningSequence.explicit(1, []))


class TestLoops:
    def test_round_trip_and_hash(self, fc1):
        loop = central_ring(fc1)
        data = loop_to_json(loop)
        assert all(isinstance(x, str) and isinstance(y, str) for x, y in data["vertices"])
        back = loop_from_json(data)
        assert back.vertices == loop.vertices
        assert loop_hash(back) == loop_hash(loop)

    @given(data=st.data())
    @settings(**HSETTINGS)
    def test_random_vertices_round_trip(self, data):
        coords = st.fractions(min_value=0, max_value=1, max_denominator=729)
        n = data.draw(st.integers(min_value=3, max_value=8))
        verts = tuple(
            (data.draw(coords), data.draw(coords)) for _ in range(n)
        )
        from carpetloop import PolyLoop

        loop = PolyLoop(verts)
        assert loop_from_json(loop_to_json(loop)).vertices == verts

    def test_vertex_outside_square_rejected(self):
        data = {"vertices": [["0/1", "0/1"], ["2/1", "0/1"], ["1/1", "1/1"]]}
        with pytest.raises(FormatError):
            loop_from_json(data)

    def test_malformed_vertex_rejected(self):
        with pytest.raises(FormatError, match="bad loop object"):
            loop_from_json({"vertices": [["1/2"], ["1/3", "1/4"], ["1/5", "1/6"]]})
        with pytest.raises(FormatError):
            loop_from_json({})


class TestCorridorWords:
    def _round_trip(self, seq, word):
        back = parse_word(word.text, seq)
        assert back.level == word.level
        assert back.trace.letters == word.trace.letters
        assert back.commutes == word.commutes

    def test_encoded_word_round_trips(self, fc2):
        loop = central_ring(fc2)
        self._round_trip(fc2, encode_word(loop, fc2, 1))
        self._round_trip(fc2, encode_word(loop, fc2, 2))

    def test_random_walk_words_round_trip(self, fc2):
        rng = random.Random(7)
        for _ in range(20):
            word = closed_walk_word(fc2, 2, rng)
            self._round_trip(fc2, word)

    def test_synthetic_intervals_preserve_algebra(self, fc1):
        h = next(c for c in corridors(fc1, 1) if c.orientation == "H")
        v = next(c for c in corridors(fc1, 1) if c.orientation == "V")
        word = word_from_letters(fc1, 1, [(h, 1), (v, 1), (h, -1), (v, -1)])
        back = parse_word(word.text, fc1)
        assert back.text == word.text
        assert parse_word(word.text, fc1).text == word.text

    def test_relation_restricted_to_present_letters(self):
        seq = DefiningSequence.explicit(1, [])
        h = next(c for c in corridors(seq, 1) if c.orientation == "H" and c.stratum == 1)
        v = next(c for c in corridors(seq, 1) if c.orientation == "V" and c.stratum == 1)
        text = f"{h.id_text}+ {v.id_text}-"
        back = parse_word(text, seq)
        assert back.commutes == frozenset({frozenset({h.id, v.id})})
        solo = parse_word(f"{h.id_text}+", seq)
        assert solo.commutes == frozenset()

    def test_empty_word_needs_level(self, fc1):
        word = parse_word("", fc1, level=1)
        assert word.level == 1 and word.letters == ()
        with pytest.raises(FormatError, match="explicit level"):
            parse_word("", fc1)

    def test_bad_token(self, fc1):
        with pytest.raises(FormatError, match="bad letter token"):
            parse_word("H:1:0+", fc1)

    def test_level_mismatch(self, fc2):
        c = corridors(fc2, 1)[0]
        with pytest.raises(FormatError, match="not at level"):
            parse_word(f"{c.id_text}+", fc2, level=2)
        d = corridors(fc2, 2)[0]
        with pytest.raises(FormatError, match="not at level"):
            parse_word(f"{c.id_text}+ {d.id_text}+", fc2)

    def test_unknown_corridor(self, fc1):
        c = corridors(fc1, 1)[0]
        o, lv, s, e = c.id
        with pytest.raises(FormatError, match="no corridor"):
            parse_word(f"{o}:{lv}:99:{e.numerator}/{e.denominator}+", fc1)


class TestFreeWords:
    def test_run_collapse_round_trip(self, fc2):
        sq1 = GridSquare(1, 1, 1)
        sq2 = GridSquare(2, 1, 1)
        word = FreeWord(((sq1, 1), (sq1, 1), (sq2, -1)))
        text = word.text
        assert text == "g[1,1,1]^2 g[2,1,1]^-1"
        assert parse_free_word(text, fc2) == word

    def test_empty_and_zero_exponents(self, fc1):
        assert parse_free_word("") == FreeWord(())
        assert parse_free_word("g[1,1,1]^0", fc1) == FreeWord(())

    def test_realized_word_round_trips(self, fc2):
        loop = central_ring(fc2)
        word = puncture_word(loop, fc2, 2)
        assert parse_free_word(word.text, fc2) == word

    def test_bad_generator_token(self):
        for bad in ["g[1,1]", "g(1,1,1)", "h[1,1,1]", "g[1,1,1]^"]:
            with pytest.raises(FormatError, match="bad generator token"):
                parse_free_word(bad)

    def test_membership_checked_against_space(self, fc1):
        with pytest.raises(FormatError, match="not a removed square"):
            parse_free_word("g[2,1,2]", fc1)
        # without a space the same text is accepted at face value
        assert parse_free_word("g[2,1,2]").text == "g[2,1,2]"

    def test_impossible_indices_rejected(self):
        with pytest.raises(FormatError, match="out of range"):
            parse_free_word("g[1,2,1]")


class TestDiagramsAndSchemes:
    def test_pairs_sorted_both_ways(self):
        assert diagram_to_json([(3, 1), (0, 2)]) == [[0, 2], [1, 3]]
        assert diagram_to_json([]) == []

    def test_scheme_shape(self, fc1):
        c = corridors(fc1, 1)[0]
        word = word_from_letters(fc1, 1, [(c, 1), (c, -1)])
        diagram = CancellationDiagram.of((0, 1))
        data = scheme_to_json([word], [diagram])
        assert set(data) == {"words", "diagrams"}
        assert data["words"] == [word.text]
        assert data["diagrams"] == [[[0, 1]]]
        json.dumps(data)
