"""Cancellation calculus: triviality, diagrams, induction, schemes."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carpetloop import (
    CancellationDiagram,
    CoherentScheme,
    SearchCaps,
    TraceWord,
    coherent_scheme,
    diagram_valid,
    encode_word,
    enumerate_diagrams,
    first_diagram,
    induces,
    refinement_map,
    trace_trivial,
)
from carpetloop.errors import (
    CapExceeded,
    MalformedDiagram,
    NoInducedDiagram,
    NotFoundError,
)
from carpetloop.traces import Budget, _iter_matchings
from carpetloop.words import RefinementCorrespondence
from carpetloop import corridors

from conftest import (
    bfs_trivial,
    closed_walk_word,
    eager_coherent_scheme,
    induce_diagram,
    make_trace,
    out_and_back_word,
    random_explicit_space,
    realized_loop,
    recursive_iter_matchings,
    scan_diagram_valid,
    stack_trivial,
    subset_dp_trivial,
    word_from_letters,
)

HSETTINGS = dict(derandomize=True, deadline=None, max_examples=60)

# A fourteen-letter workout: five generators, one commuting pair, and a
# single way to cancel everything.
KNOT_TOKENS = "d3+ d2+ l+ d2- l- d3- k+ d1+ l- d2+ l+ d2- d1- k-".split()
KNOT_RELATION = (("l", "d2"),)
KNOT_DIAGRAM = CancellationDiagram.of(
    (0, 5), (1, 3), (2, 4), (6, 13), (7, 12), (8, 10), (9, 11)
)


def brute_matchings(word):
    """Every perfect matching of positions into inverse pairs, unfiltered."""
    n = len(word)
    out = []

    def rec(alive, pairs):
        if not alive:
            out.append(CancellationDiagram(frozenset(pairs)))
            return
        p = min(alive)
        g, e = word.letters[p]
        for q in sorted(alive - {p}):
            if word.letters[q] == (g, -e):
                rec(alive - {p, q}, pairs + [(p, q)])

    rec(frozenset(range(n)), [])
    return out


def random_word(rng, max_len=10, gens="abcd"):
    n = 2 * rng.randint(0, max_len // 2)
    letters = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(n)]
    pool = list(itertools.combinations(sorted(set(gens)), 2))
    picked = rng.sample(pool, rng.randint(0, len(pool)))
    return TraceWord(tuple(letters), frozenset(frozenset(p) for p in picked))


class TestTrivial:
    def test_knot_word_needs_the_relation(self):
        with_rel = make_trace(KNOT_TOKENS, KNOT_RELATION)
        assert trace_trivial(with_rel)
        assert subset_dp_trivial(with_rel.letters, with_rel.commutes)
        without = make_trace(KNOT_TOKENS)
        assert trace_trivial(without) == subset_dp_trivial(
            without.letters, without.commutes
        )
        assert not trace_trivial(without)

    def test_empty_and_unbalanced(self):
        assert trace_trivial(make_trace([]))
        assert not trace_trivial(make_trace(["a+"]))
        assert not trace_trivial(make_trace(["a+", "a+"]))
        assert not trace_trivial(make_trace(["a+", "b-"]))

    def test_commutator_follows_the_relation(self):
        tokens = ["a+", "b+", "a-", "b-"]
        assert not trace_trivial(make_trace(tokens))
        assert trace_trivial(make_trace(tokens, (("a", "b"),)))

    def test_far_apart_cancellation_slides(self):
        # b's pieces block the a-pair unless b commutes with a.
        tokens = ["a+", "b+", "a-", "b-", "a+", "a-"]
        w = make_trace(tokens, (("a", "b"),))
        assert trace_trivial(w)

    @settings(**HSETTINGS)
    @given(st.integers(0, 2**30), st.integers(0, 9))
    def test_rotation_invariant(self, seed, rot):
        rng = random.Random(seed)
        w = random_word(rng, max_len=8)
        if not len(w):
            return
        k = rot % len(w)
        rotated = TraceWord(w.letters[k:] + w.letters[:k], w.commutes)
        assert trace_trivial(w) == trace_trivial(rotated)

    def test_fuzz_matches_both_oracles(self):
        rng = random.Random(20260815)
        for _ in range(250):
            w = random_word(rng, max_len=10)
            got = trace_trivial(w)
            assert got == subset_dp_trivial(w.letters, w.commutes), w.text
            if len(w) <= 8:
                assert got == bfs_trivial(w.letters, w.commutes), w.text

    def test_trivial_iff_some_diagram(self):
        rng = random.Random(7)
        for _ in range(120):
            w = random_word(rng, max_len=8)
            assert trace_trivial(w) == bool(enumerate_diagrams(w)), w.text


def corridor_gen(j: int):
    """A corridor-id-shaped generator: (orientation, level, stratum, extent start)."""
    return ("HV"[j % 2], 8, 1 + j // 2, Fraction(2 * j, 3**8))


def relation_of(gens, rng, density):
    pool = list(itertools.combinations(sorted(gens, key=repr), 2))
    picked = [p for p in pool if rng.random() < density]
    return frozenset(frozenset(p) for p in picked)


def built_word(rng, gens, relation, pairs, nontrivial=False):
    """A word trivial by construction: nested inverse pairs, then commuting swaps.

    The first pairs take the generators in turn, so every generator
    occurs once there are enough pairs.  With nontrivial=True a
    commutator of two non-commuting generators is spliced in, which
    leaves a conjugate of it: nontrivial, with every exponent sum still
    zero.
    """
    word = []
    for k in range(pairs):
        g = gens[k] if k < len(gens) else rng.choice(gens)
        e = rng.choice((1, -1))
        at = rng.randint(0, len(word))
        word[at:at] = [(g, e), (g, -e)]
    for _ in range(2):
        for j in range(len(word) - 1):
            a, b = word[j][0], word[j + 1][0]
            if a != b and frozenset((a, b)) in relation and rng.random() < 0.5:
                word[j], word[j + 1] = word[j + 1], word[j]
    if nontrivial:
        while True:
            a, b = rng.sample(gens, 2)
            if frozenset((a, b)) not in relation:
                break
        at = rng.randint(0, len(word))
        word[at:at] = [(a, 1), (b, 1), (a, -1), (b, -1)]
    return TraceWord(tuple(word), relation)


class TestPilingMatchesStack:
    """The exposure-count piling against the per-pair stacks it replaced."""

    @pytest.mark.parametrize("density", [0.0, 0.2, 0.8], ids=["empty", "sparse", "dense"])
    @pytest.mark.parametrize("kind", ["string", "corridor"])
    def test_random_small_words(self, density, kind):
        rng = random.Random(f"piling:{density}:{kind}")
        gens = list("abcde") if kind == "string" else [corridor_gen(j) for j in range(5)]
        for _ in range(300):
            n = 2 * rng.randint(0, 5)
            letters = tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(n))
            w = TraceWord(letters, relation_of(gens, rng, density))
            got = trace_trivial(w)
            assert got == stack_trivial(w), w.text
            assert got == subset_dp_trivial(w.letters, w.commutes), w.text
            if n <= 6:
                assert got == bfs_trivial(w.letters, w.commutes), w.text

    @pytest.mark.parametrize("density", [0.0, 0.05, 0.5], ids=["empty", "sparse", "dense"])
    @pytest.mark.parametrize("kind", ["string", "corridor"])
    def test_built_words(self, density, kind):
        rng = random.Random(f"built:{density}:{kind}")
        seen = set()
        for t in range(80):
            g = rng.randint(2, 12)
            gens = [f"g{j}" if kind == "string" else corridor_gen(j) for j in range(g)]
            relation = relation_of(gens, rng, density)
            if len(relation) == g * (g - 1) // 2:
                continue
            w = built_word(rng, gens, relation, rng.randint(0, 20), nontrivial=t % 2 == 1)
            got = trace_trivial(w)
            assert got == stack_trivial(w) == (t % 2 == 0), w.text
            seen.add(got)
        assert seen == {True, False}

    def test_relation_beyond_the_letters(self):
        # pairs naming absent generators, and a one-element "pair", are inert
        w = make_trace(["a+", "b+", "a-", "b-"], (("a", "z"), ("a", "a"), ("b", "y")))
        assert not trace_trivial(w) and not stack_trivial(w)
        assert w.commute("a", "z") and not w.commute("a", "a") and not w.commute("a", "b")
        assert not w.commute("y", "z")

    def test_long_sparse_word_decides(self):
        # 2,200 inverse pairs over 1,500 generators, each commuting with a
        # few others: the size of a level-8 corridor word
        rng = random.Random(4376)
        gens = [corridor_gen(j) for j in range(1500)]
        relation = set()
        for a in gens:
            for b in rng.sample(gens, 3):
                if a != b:
                    relation.add(frozenset((a, b)))
        relation = frozenset(relation)
        trivial = built_word(rng, gens, relation, 2200)
        assert len(trivial) == 4400 and len({g for g, _ in trivial.letters}) == 1500
        assert trace_trivial(trivial)
        twisted = built_word(rng, gens, relation, 2200, nontrivial=True)
        assert not trace_trivial(twisted)


class TestDiagrams:
    def test_knot_word_has_a_unique_diagram(self):
        w = make_trace(KNOT_TOKENS, KNOT_RELATION)
        assert enumerate_diagrams(w) == (KNOT_DIAGRAM,)
        assert diagram_valid(w, KNOT_DIAGRAM)

    def test_double_cancellation_has_two(self):
        w = make_trace(["D+", "D-", "D+", "D-"])
        got = set(enumerate_diagrams(w))
        assert got == {
            CancellationDiagram.of((0, 1), (2, 3)),
            CancellationDiagram.of((0, 3), (1, 2)),
        }

    def test_wrap_pair(self):
        w = make_trace(["a-", "b+", "b-", "a+"])
        assert enumerate_diagrams(w) == (CancellationDiagram.of((0, 3), (1, 2)),)

    def test_nontrivial_word_has_none(self):
        w = make_trace(["V+", "H+", "V-", "H-"])
        assert enumerate_diagrams(w) == ()
        assert not trace_trivial(w)

    def test_malformed_matchings_are_loud(self):
        w = make_trace(["a+", "a-", "a+", "a-"])
        for bad in (
            CancellationDiagram.of((0, 4)),
            CancellationDiagram.of((0, 1), (0, 3)),
            CancellationDiagram.of((0, 2), (1, 3)),
            CancellationDiagram.of((0, 1)),
        ):
            with pytest.raises(MalformedDiagram):
                diagram_valid(w, bad)

    def test_wellformed_but_invalid_is_false(self):
        w = make_trace(["a+", "b+", "a-", "b-"])
        d = CancellationDiagram.of((0, 2), (1, 3))
        assert diagram_valid(w, d) is False

    def test_enumerate_matches_brute_filter(self):
        rng = random.Random(99)
        for _ in range(120):
            w = random_word(rng, max_len=8)
            valid = set()
            for d in brute_matchings(w):
                if diagram_valid(w, d):
                    valid.add(d)
            assert set(enumerate_diagrams(w)) == valid, w.text

    def test_enumerate_cap(self):
        w = make_trace(["a+", "a-"] * 3)
        assert len(enumerate_diagrams(w)) == 5
        with pytest.raises(CapExceeded) as exc:
            enumerate_diagrams(w, cap=3)
        assert len(exc.value.partial) == 3

    def test_first_diagram_is_first_enumerated(self):
        rng = random.Random(20240815)
        found = 0
        for _ in range(300):
            w = random_word(rng)
            back = tuple((g, -e) for g, e in reversed(w.letters))
            for word in (w, TraceWord(w.letters + back, w.commutes)):
                every = enumerate_diagrams(word)
                assert first_diagram(word) == (every[0] if every else None), word.text
                found += bool(every)
        assert found > 300

    def test_search_matches_recursive_oracle(self, fc4):
        # The same diagrams in the same order, and the same budget charges,
        # with and without a preassigned pair: AC2-style random words, each
        # also followed by its inverse, then realized depth-4 walk words.
        rng = random.Random(20240815)
        words = []
        for _ in range(300):
            alphabet = rng.sample("abcd", rng.randint(1, 4))
            letters = tuple(
                (rng.choice(alphabet), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 10))
            )
            commutes = frozenset(
                frozenset(p) for p in itertools.combinations("abcd", 2) if rng.random() < 0.5
            )
            back = tuple((g, -e) for g, e in reversed(letters))
            words += [TraceWord(letters, commutes), TraceWord(letters + back, commutes)]
        for level in (2, 3, 4):
            for _ in range(3):
                loop = realized_loop(fc4, out_and_back_word(fc4, level, rng, max_len=6))
                if loop is not None:
                    words += [
                        encode_word(loop, fc4, i).trace for i in range(1, 5)
                    ]
        found = 0
        for w in words:
            first = next(recursive_iter_matchings(w, (), None), None)
            for pre in ((), first.sorted_pairs[:1] if first else ()):
                got, want = Budget(10**9), Budget(10**9)
                new = list(itertools.islice(_iter_matchings(w, pre, got), 50))
                old = list(itertools.islice(recursive_iter_matchings(w, pre, want), 50))
                assert new == old, w.text
                assert got.spent == want.spent, w.text
                found += len(new)
        assert found > 1000

    def test_valid_matches_scan_oracle(self, fc4):
        # The counting check against the rescanning one: the same verdict,
        # or the same MalformedDiagram, on valid, invalid and malformed
        # diagrams of AC2-style random words and realized depth-4 walk words.
        rng = random.Random(20241018)
        words = []
        for _ in range(200):
            w = random_word(rng, max_len=12)
            back = tuple((g, -e) for g, e in reversed(w.letters))
            words += [w, TraceWord(w.letters + back, w.commutes)]
        for level in (2, 3, 4):
            for _ in range(3):
                loop = realized_loop(fc4, out_and_back_word(fc4, level, rng, max_len=6))
                if loop is not None:
                    words += [
                        encode_word(loop, fc4, i).trace for i in range(1, 5)
                    ]

        def outcome(check, w, d):
            try:
                return check(w, d)
            except MalformedDiagram as e:
                return str(e)

        def shuffled_matching(w):
            # Inverse letters paired at random: well formed, often invalid.
            by_letter = {}
            for r, letter in enumerate(w.letters):
                by_letter.setdefault(letter, []).append(r)
            pairs = []
            for (g, e), ps in by_letter.items():
                if e > 0:
                    qs = list(by_letter.get((g, -1), ()))
                    rng.shuffle(qs)
                    pairs += zip(ps, qs)
            return CancellationDiagram.of(*pairs)

        seen = {True: 0, False: 0, "malformed": 0}
        for w in words:
            n = len(w)
            diagrams = list(itertools.islice(_iter_matchings(w, (), None), 3))
            diagrams += [shuffled_matching(w) for _ in range(3)]
            if n >= 2:
                pairs = sorted(shuffled_matching(w).pairs)
                diagrams += [
                    CancellationDiagram(frozenset(pairs[1:])),  # a pair missing
                    CancellationDiagram(frozenset(pairs + [(0, n)])),  # out of range
                    CancellationDiagram(frozenset(pairs + [(0, n - 1)])),  # reused
                    CancellationDiagram.of((0, 1), *[(r, r + 1) for r in range(2, n - 1, 2)]),
                ]
            for d in diagrams:
                got = outcome(diagram_valid, w, d)
                assert got == outcome(scan_diagram_valid, w, d), (w.text, sorted(d.pairs))
                seen[got if isinstance(got, bool) else "malformed"] += 1
        assert min(seen.values()) > 50, seen

    def test_preassigned_restricts(self):
        w = make_trace(["D+", "D-", "D+", "D-"])
        got = enumerate_diagrams(w, preassigned=[(0, 1)])
        assert got == (CancellationDiagram.of((0, 1), (2, 3)),)


def _synthetic_pair(fc1, fc2, coarse_signs, ends, fine_len=14):
    h = corridors(fc1, 1)[0]
    coarse = word_from_letters(fc1, 1, [(h, s) for s in coarse_signs])
    d = corridors(fc2, 2)[0]
    fine_pairs = [(d, 1 if j % 2 == 0 else -1) for j in range(fine_len)]
    fine = word_from_letters(fc2, 2, fine_pairs)
    return RefinementCorrespondence(coarse, fine, tuple(ends))


class TestInduce:
    def test_end_pairs_force_the_coarse_diagram(self, fc1, fc2):
        corr = _synthetic_pair(
            fc1, fc2, (1, -1, 1, -1), ((0, 1), (3, 5), (7, 9), (11, 12))
        )
        got = induce_diagram(KNOT_DIAGRAM, corr)
        assert got == (CancellationDiagram.of((0, 1), (2, 3)),)

    def test_pair_inside_one_parent_rejected(self, fc1, fc2):
        corr = _synthetic_pair(
            fc1, fc2, (1, -1, 1, -1), ((0, 1), (3, 5), (7, 9), (11, 12))
        )
        d = CancellationDiagram.of((0, 1))
        with pytest.raises(NoInducedDiagram, match="both ends"):
            induce_diagram(d, corr)

    def test_conflicting_parents_rejected(self, fc1, fc2):
        corr = _synthetic_pair(
            fc1, fc2, (1, -1, 1, -1), ((0, 1), (3, 5), (7, 9), (11, 12))
        )
        d = CancellationDiagram.of((0, 5), (1, 9))
        with pytest.raises(NoInducedDiagram, match="forced against"):
            induce_diagram(d, corr)

    def test_noninverse_forced_pair_rejected(self, fc1, fc2):
        corr = _synthetic_pair(
            fc1, fc2, (1, 1, -1, -1), ((0, 1), (3, 5), (7, 9), (11, 12))
        )
        d = CancellationDiagram.of((0, 5), (2, 4))
        with pytest.raises(NoInducedDiagram):
            induce_diagram(d, corr)

    def test_realized_refinements_induce(self, fc2):
        rng = random.Random(31)
        done = 0
        while done < 4:
            word = out_and_back_word(fc2, 2, rng)
            loop = realized_loop(fc2, word)
            if loop is None:
                continue
            w1 = encode_word(loop, fc2, 1)
            w2 = encode_word(loop, fc2, 2)
            corr = refinement_map(w1, w2)
            fine_diagrams = enumerate_diagrams(w2.trace, cap=500)
            assert fine_diagrams
            for d in fine_diagrams[:5]:
                coarse = induce_diagram(d, corr)
                for c in coarse:
                    assert diagram_valid(w1.trace, c)
            done += 1


    def test_induces_is_membership(self, fc4):
        # Containment of the forced pairs against the enumeration, for
        # every valid coarse diagram of realized depth-4 walks.
        rng = random.Random(37)
        walks = (
            lambda seq, level: out_and_back_word(seq, level, rng, max_len=6),
            lambda seq, level: closed_walk_word(seq, level, rng, wander=8),
        )
        checked = {True: 0, False: 0}
        for seq in (fc4, random_explicit_space(4, rng)):
            for level in (2, 3, 4):
                for walk in walks:
                    loop = realized_loop(seq, walk(seq, level))
                    if loop is None:
                        continue
                    words = [encode_word(loop, seq, i) for i in range(1, 5)]
                    for coarse, fine in zip(words, words[1:]):
                        corr = refinement_map(coarse, fine)
                        every = enumerate_diagrams(coarse.trace)
                        for d in enumerate_diagrams(fine.trace)[:20]:
                            try:
                                induced = set(induce_diagram(d, corr))
                            except NoInducedDiagram:
                                induced = set()
                            for c in every:
                                assert induces(d, corr, c) == (c in induced)
                                checked[c in induced] += 1
        assert checked[True] and checked[False]


class TestScheme:
    def _scheme_for(self, seq, depth, rng):
        while True:
            word = out_and_back_word(seq, depth, rng)
            loop = realized_loop(seq, word)
            if loop is None:
                continue
            words = [encode_word(loop, seq, i) for i in range(1, depth + 1)]
            refs = [refinement_map(a, b) for a, b in zip(words, words[1:])]
            return words, refs

    def test_out_and_back_scheme_depth2(self, fc2):
        rng = random.Random(5)
        words, refs = self._scheme_for(fc2, 2, rng)
        scheme = coherent_scheme(words, refs)
        assert len(scheme.diagrams) == 2
        assert scheme.verify(refs)

    def test_out_and_back_scheme_depth3(self, fc3):
        rng = random.Random(6)
        for _ in range(2):
            words, refs = self._scheme_for(fc3, 3, rng)
            scheme = coherent_scheme(words, refs)
            assert len(scheme.diagrams) == 3
            assert scheme.verify(refs)

    def test_nontrivial_word_raises(self, fc1):
        h, hh, v, vv = corridors(fc1, 1)
        ring = word_from_letters(fc1, 1, [(v, 1), (h, 1), (v, -1), (h, -1)])
        with pytest.raises(NotFoundError) as exc:
            coherent_scheme([ring], [])
        assert exc.value.level == 1

    def test_blocked_chain_raises(self, fc1, fc2):
        # Parents interleave E F E F in the fine order, so the only fine
        # diagram forces an E against an F.
        cs = corridors(fc1, 1)
        e, f = cs[0], cs[2]
        coarse = word_from_letters(fc1, 1, [(e, 1), (e, -1), (f, 1), (f, -1)])
        d = corridors(fc2, 2)[0]
        fine = word_from_letters(fc2, 2, [(d, 1), (d, 1), (d, -1), (d, -1)])
        corr = RefinementCorrespondence(
            coarse, fine, ((0, 0), (2, 2), (1, 1), (3, 3))
        )
        with pytest.raises(NotFoundError) as exc:
            coherent_scheme([coarse, fine], [corr])
        assert exc.value.level == 1

    def test_refinement_count_checked(self, fc1):
        h = corridors(fc1, 1)[0]
        w = word_from_letters(fc1, 1, [(h, 1), (h, -1)])
        with pytest.raises(ValueError):
            coherent_scheme([w, w], [])

    def test_work_budget(self, fc1):
        h = corridors(fc1, 1)[0]
        w = word_from_letters(fc1, 1, [(h, 1), (h, -1)])
        with pytest.raises(CapExceeded):
            coherent_scheme([w], [], caps=SearchCaps(work=1))

    def test_lazy_induction_matches_eager_oracle(self, fc2, fc3, fc4):
        # Realized walks, zig-zags and closed walks on full carpets and
        # random explicit spaces, at the default caps and at one diagram
        # per level: the same diagrams whenever the eager search returns,
        # NotFoundError whenever it finds none, and never a cap where it
        # decides.
        rng = random.Random(20261018)

        def zigzag(seq, level):
            walk = out_and_back_word(seq, level, rng)
            return word_from_letters(seq, level, [(l.corridor, l.sign) for l in walk.letters] * 2)

        walks = (
            lambda seq, level: out_and_back_word(seq, level, rng, max_len=6),
            zigzag,
            lambda seq, level: closed_walk_word(seq, level, rng, wander=8),
        )
        spaces = (fc2, fc3, fc4, random_explicit_space(3, rng), random_explicit_space(4, rng))
        outcomes = {}
        for seq in spaces:
            for level in range(2, seq.depth + 1):
                for walk in walks:
                    for _ in range(2):
                        loop = realized_loop(seq, walk(seq, level))
                        if loop is None:
                            continue
                        words = [encode_word(loop, seq, i) for i in range(1, seq.depth + 1)]
                        refs = [refinement_map(a, b) for a, b in zip(words, words[1:])]
                        for caps in (SearchCaps(), SearchCaps(per_level=1)):
                            try:
                                want = eager_coherent_scheme(words, refs, caps)
                            except CapExceeded:
                                kind = "eager cap"  # the lazy search may still decide
                            except NotFoundError:
                                kind = "not found"
                                with pytest.raises(NotFoundError):
                                    coherent_scheme(words, refs, caps)
                            else:
                                kind = "decided"
                                got = coherent_scheme(words, refs, caps)
                                assert got.diagrams == want.diagrams, words[-1].text
                                assert got.verify(refs)
                            outcomes[caps.per_level, kind] = outcomes.get((caps.per_level, kind), 0) + 1
        assert outcomes[100_000, "decided"] > 40, outcomes
        assert outcomes[1, "decided"] > 20, outcomes
        assert outcomes[100_000, "not found"] > 5, outcomes

    def test_induced_diagrams_tried_lazily(self, fc1, fc2):
        # The first fine diagram joins no two end letters, so both coarse
        # diagrams are induced: listing them overflows one diagram per
        # level, while trying them stops at the first, which chains.
        corr = _synthetic_pair(
            fc1, fc2, (1, -1, 1, -1), ((0, 0), (2, 2), (4, 4), (6, 6)), fine_len=8
        )
        words, refs = [corr.coarse_word, corr.fine_word], [corr]
        caps = SearchCaps(per_level=1)
        with pytest.raises(CapExceeded):
            eager_coherent_scheme(words, refs, caps)
        scheme = coherent_scheme(words, refs, caps)
        assert scheme.diagrams[0] == CancellationDiagram.of((0, 1), (2, 3))
        assert scheme.verify(refs)

    def test_verify_rejects_wrong_links(self, fc1, fc2):
        corr = _synthetic_pair(
            fc1, fc2, (1, -1, 1, -1), ((0, 1), (3, 5), (7, 9), (11, 12))
        )
        fine_tokens = KNOT_TOKENS
        fine_tw = make_trace(fine_tokens, KNOT_RELATION)
        coarse_tw = corr.coarse_word.trace
        good = CoherentScheme(
            (coarse_tw, fine_tw),
            (CancellationDiagram.of((0, 1), (2, 3)), KNOT_DIAGRAM),
        )
        # The synthetic correspondence carries the coarse word whose
        # letters this trace word mirrors, so verification goes through.
        assert good.verify([corr])
        other = CoherentScheme(
            (coarse_tw, fine_tw),
            (CancellationDiagram.of((0, 3), (1, 2)), KNOT_DIAGRAM),
        )
        assert not other.verify([corr])
        short = CoherentScheme((coarse_tw,), ())
        assert not short.verify([])
