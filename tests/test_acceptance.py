"""Release gate: every shipping requirement, timed, one line per check.

Run with `pytest tests/test_acceptance.py -v -s` to see the checklist;
each test prints `ACn <label>: PASS (time)` or FAIL and enforces its
stated time budget.
"""

import functools
import itertools
import json
import random
import tempfile
import time
from fractions import Fraction as F

import pytest

from carpetloop import (
    CancellationDiagram,
    DefiningSequence,
    Nontrivial,
    PolyLoop,
    TraceWord,
    TrivialUpTo,
    bonding_map,
    central_ring,
    check_certificate,
    convergence_gap,
    decide,
    encode_word,
    enumerate_diagrams,
    make_certificate,
    realize_word,
    refinement_map,
    shape_image,
    subdivided_ring,
    trace_trivial,
    verify_containment,
    winding_vector,
)
from carpetloop.errors import CapExceeded, Unroutable
from carpetloop.serialize import loop_to_json, space_to_json

from conftest import (
    closed_walk_word,
    cyclically_equal,
    induce_diagram,
    out_and_back_word,
    realized_loop,
    subset_dp_trivial,
)
from test_traces import KNOT_DIAGRAM, KNOT_RELATION, KNOT_TOKENS, _synthetic_pair
from test_homotopy import homotopies_for


def criterion(name, budget=None):
    """Print one pass/fail line and enforce the stated time budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"\n{name}: FAIL ({time.monotonic() - t0:.2f}s)")
                raise
            dt = time.monotonic() - t0
            extra = f"; {detail}" if detail else ""
            print(f"\n{name}: PASS ({dt:.2f}s{extra})")
            if budget is not None:
                assert dt < budget, f"{name} exceeded its {budget}s budget: {dt:.2f}s"

        return wrapper

    return deco


def dump_fixture(tag, seq, loop, **extra):
    data = {"space": space_to_json(seq), "loop": loop_to_json(loop), **extra}
    with tempfile.NamedTemporaryFile(
        "w", prefix=f"carpetloop-{tag}-", suffix=".json", delete=False
    ) as f:
        json.dump(data, f, indent=2)
        return f.name


def sample_realized(seq, level, rng, builder, want, ray_check=True):
    """Realized loops from random walk words, skipping the unroutable
    and (rarely) ray-degenerate ones."""
    out = []
    rays = tuple(range(1, seq.depth + 1)) if ray_check else ()
    attempts = 0
    while len(out) < want:
        attempts += 1
        assert attempts < 50 * want, "sampling stalled"
        word = builder(seq, level, rng)
        loop = realized_loop(seq, word, ray_levels=rays)
        if loop is not None and len(word):
            out.append((word, loop))
    return out


@criterion("AC1 knot word reduces; induced diagram pairs adjacent inverses", budget=1.0)
def test_ac1_reduction_and_induction(fc1, fc2):
    word = TraceWord.from_strings(KNOT_TOKENS, KNOT_RELATION)
    assert trace_trivial(word)
    assert not trace_trivial(TraceWord.from_strings(KNOT_TOKENS))
    assert list(enumerate_diagrams(word)) == [KNOT_DIAGRAM]

    # coarse word D+ D- D+ D-; the fine cancellation must induce the
    # adjacent pairing (0,1)(2,3), never the wrapped (0,3)(1,2)
    corr = _synthetic_pair(fc1, fc2, (1, -1, 1, -1), ((0, 1), (3, 5), (7, 9), (11, 12)))
    induced = induce_diagram(KNOT_DIAGRAM, corr)
    assert induced == (CancellationDiagram.of((0, 1), (2, 3)),)
    assert CancellationDiagram.of((0, 3), (1, 2)) not in induced


@criterion("AC2 piling verdict matches exhaustive search on 10000 words", budget=60.0)
def test_ac2_oracle_equivalence():
    rng = random.Random(20240815)
    gens = "abcd"
    all_pairs = list(itertools.combinations(gens, 2))
    for trial in range(10_000):
        size = rng.randint(1, 4)
        alphabet = rng.sample(gens, size)
        letters = tuple(
            (rng.choice(alphabet), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 10))
        )
        commutes = frozenset(
            frozenset(p) for p in all_pairs if rng.random() < 0.5
        )
        word = TraceWord(letters, commutes)
        fast = trace_trivial(word)
        slow = subset_dp_trivial(letters, commutes)
        assert fast == slow, (letters, sorted(map(sorted, commutes)), fast, slow)
    return "10000 words"


@criterion("AC3 central ring and abelianization-blind commutator detected", budget=2.0)
def test_ac3_nontriviality_detection(fc3):
    t0 = time.monotonic()
    v = decide(central_ring(fc3), fc3)
    assert isinstance(v, Nontrivial)
    assert v.level == 1
    assert v.witness.text == "g[1,1,1]"
    assert time.monotonic() - t0 < 1.0

    seq = DefiningSequence.explicit(2, [(1, 1, 1), (2, 1, 1)])
    u = lambda a, b: (F(a, 18), F(b, 18))
    commutator = PolyLoop((
        u(1, 5),
        u(1, 1), u(5, 1), u(5, 5),
        u(1, 5),
        u(13, 5), u(13, 13), u(5, 13), u(5, 5),
        u(1, 5),
        u(5, 5), u(5, 1), u(1, 1),
        u(1, 5),
        u(5, 5), u(5, 13), u(13, 13), u(13, 5),
    ))
    t0 = time.monotonic()
    v = decide(commutator, seq)
    assert isinstance(v, Nontrivial)
    assert v.level == 2  # first level that sees both holes
    assert v.witness.text == "g[2,1,1] g[1,1,1] g[2,1,1]^-1 g[1,1,1]^-1"
    assert all(n == 0 for n in winding_vector(commutator, seq, 2).values())
    assert time.monotonic() - t0 < 1.0


@criterion("AC4 bonding threads and trace/free agreement on 100 deep loops")
def test_ac4_thread_compatibility(fc4):
    rng = random.Random(4)
    samples = sample_realized(fc4, 4, rng, closed_walk_word, want=100)
    for _, loop in samples:
        words = shape_image(loop, fc4, 4)  # asserts the thread internally
        for i, free in enumerate(words, start=1):
            if i < 4:
                projected = bonding_map(words[i], i + 1)
                if projected.letters != words[i - 1].letters:
                    path = dump_fixture("thread-mismatch", fc4, loop, level=i)
                    raise AssertionError(f"bonding mismatch at level {i}: {path}")
            piled = trace_trivial(encode_word(loop, fc4, i).trace)
            if piled != free.is_identity:
                path = dump_fixture("verdict-mismatch", fc4, loop, level=i)
                raise AssertionError(f"trace/free disagreement at level {i}: {path}")
    return "100 loops x 4 levels"


@criterion("AC5 realize/encode round trip on 200 routable words")
def test_ac5_round_trip(fc3):
    rng = random.Random(55)
    done = 0
    attempts = 0
    while done < 200:
        attempts += 1
        assert attempts < 4000, "sampling stalled"
        level = 1 + (attempts % 3)
        word = closed_walk_word(fc3, level, rng)
        if not len(word):
            continue
        try:
            loop = realize_word(word, fc3)
        except Unroutable:
            continue
        back = encode_word(loop, fc3, level)
        assert cyclically_equal(back, word), (level, word.text, back.text)
        done += 1
    return "200 words, levels 1-3"


@criterion("AC6 level homotopies stay in place; gaps within 6/3^i", budget=120.0)
def test_ac6_convergence_bound(fc4):
    rng = random.Random(6)
    samples = sample_realized(fc4, 4, rng, out_and_back_word, want=20)
    checked_pairs = 0
    for _, loop in samples:
        v = decide(loop, fc4)
        assert isinstance(v, TrivialUpTo) and v.conclusive, v
        hs = homotopies_for(loop, fc4, [1, 2, 3, 4])
        for i in (1, 2, 3, 4):
            rep = verify_containment(hs[i])
            assert rep.ok, (i, rep.violations[:3])
        for i in (1, 2, 3):
            gap = convergence_gap(hs[i], hs[i + 1])
            assert gap.bound == F(6, 3**i)
            assert gap.holds, (i, gap.witness, gap.max_sq)
            checked_pairs += 1
    return f"20 loops, {checked_pairs} consecutive-level gaps"


def _chords_cross(p, q):
    (a1, b1), (a2, b2) = sorted(p), sorted(q)
    return a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1


def _non_crossing_law(word, diagrams):
    for d in diagrams:
        for p, q in itertools.combinations(d.sorted_pairs, 2):
            if _chords_cross(p, q):
                gp = word.letters[p[0]][0]
                gq = word.letters[q[0]][0]
                assert frozenset((gp, gq)) in word.commutes, (
                    word.letters,
                    p,
                    q,
                )


@criterion("AC7 refinement laws, containment, and diagram non-crossing")
def test_ac7_structural_invariants(fc2, fc3, fc4):
    rng = random.Random(7)
    plan = [(fc2, 2, 140), (fc3, 3, 40), (fc4, 4, 20)]
    loops_checked = 0
    for seq, level, want in plan:
        for _, loop in sample_realized(seq, level, rng, closed_walk_word, want=want):
            words = [encode_word(loop, seq, i) for i in range(1, seq.depth + 1)]
            for coarse, fine in zip(words, words[1:]):
                refinement_map(coarse, fine)  # raises on any (R1)/(R2) breach
            loops_checked += 1

    # containment stays clean on freshly built homotopies
    built = 0
    for _, loop in sample_realized(fc2, 2, rng, out_and_back_word, want=6):
        hs = homotopies_for(loop, fc2, [1, 2])
        for h in hs.values():
            assert verify_containment(h).ok
            built += 1

    # non-crossing law on every enumerated diagram of sampled words
    words = 0
    gens = "abcd"
    all_pairs = list(itertools.combinations(gens, 2))
    for _ in range(200):
        letters = tuple(
            (rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(2, 10))
        )
        commutes = frozenset(frozenset(p) for p in all_pairs if rng.random() < 0.5)
        word = TraceWord(letters, commutes)
        try:
            _non_crossing_law(word, enumerate_diagrams(word, cap=500))
        except CapExceeded as e:
            _non_crossing_law(word, e.partial or [])
        words += 1
    for _, loop in sample_realized(fc2, 2, rng, closed_walk_word, want=40):
        word = encode_word(loop, fc2, 2).trace
        _non_crossing_law(word, enumerate_diagrams(word, cap=500))
        words += 1
    return f"{loops_checked} loops refined, {built} homotopies, {words} words"


@criterion("AC8 depth-5 decision under 1s, certificate check under 100ms")
def test_ac8_performance():
    seq = DefiningSequence.full_carpet(5)
    loop = subdivided_ring(seq, 200)
    assert len(loop) >= 200

    t0 = time.monotonic()
    v = decide(loop, seq)
    decide_dt = time.monotonic() - t0
    assert isinstance(v, Nontrivial) and v.level == 1
    assert v.witness.text == "g[1,1,1]"
    assert decide_dt < 1.0, f"decide took {decide_dt:.3f}s"

    _, cert = make_certificate(loop, seq)
    t0 = time.monotonic()
    rep = check_certificate(cert, loop, seq)
    check_dt = time.monotonic() - t0
    assert rep.ok
    assert check_dt < 0.1, f"check took {check_dt:.4f}s"
    return f"{len(loop)} vertices; decide {decide_dt:.3f}s, check {check_dt * 1000:.1f}ms"
