"""Shared fixtures and independent oracles for the test suite.

The oracles here are deliberately written from first principles, not by
calling back into the package, so frozen expected values in the tests
were produced by genuinely independent computations.
"""

from __future__ import annotations

import math
import random
import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

import pytest

from carpetloop import (
    CancellationDiagram,
    CoherentScheme,
    Corridor,
    CrossingInterval,
    CyclicWord,
    DefiningSequence,
    FreeWord,
    GridSquare,
    Letter,
    RefinementCorrespondence,
    SearchCaps,
    TraceWord,
    corridors,
    diagram_valid,
    eligible_squares,
    punctures,
    realize_word,
    trace_trivial,
)
from carpetloop.errors import (
    CapExceeded,
    DegeneratePosition,
    MalformedDiagram,
    NoInducedDiagram,
    NotFoundError,
    RefinementViolation,
    Unroutable,
)
from carpetloop.grid import Point, _corridor_at, _pow3
from carpetloop.homotopy import (
    QUARTERS,
    Band,
    BandChord,
    Cellulation,
    Face,
    Node,
    ContainmentReport,
    GapReport,
    _BOX_PAD,
    _centroid,
    _float_orient,
    _lerp,
    _triangle_meets_open_rect,
    circle_point,
)
from carpetloop.serialize import FormatError, parse_frac
from carpetloop.traces import (
    Budget,
    _check_matching,
    _crosses,
    _forced_pairs,
    _iter_matchings,
)
from carpetloop.words import _relation


@pytest.fixture(scope="session")
def fc1():
    return DefiningSequence.full_carpet(1)


@pytest.fixture(scope="session")
def fc2():
    return DefiningSequence.full_carpet(2)


@pytest.fixture(scope="session")
def fc3():
    return DefiningSequence.full_carpet(3)


@pytest.fixture(scope="session")
def fc4():
    return DefiningSequence.full_carpet(4)


# ---------------------------------------------------------------------------
# Independent eligibility oracle


def brute_eligible(i: int) -> set[tuple[int, int]]:
    """Candidate squares at level i not inside any shallower candidate."""

    def interval(k: int, s: int) -> tuple[Fraction, Fraction]:
        return (Fraction(2 * k - 1, 3**s), Fraction(2 * k, 3**s))

    out = set()
    for k in range(1, (3**i - 1) // 2 + 1):
        for m in range(1, (3**i - 1) // 2 + 1):
            xk, yk = interval(k, i), interval(m, i)
            contained = False
            for s in range(1, i):
                for ks in range(1, (3**s - 1) // 2 + 1):
                    for ms in range(1, (3**s - 1) // 2 + 1):
                        xs, ys = interval(ks, s), interval(ms, s)
                        if (
                            xs[0] <= xk[0]
                            and xk[1] <= xs[1]
                            and ys[0] <= yk[0]
                            and yk[1] <= ys[1]
                        ):
                            contained = True
            if not contained:
                out.add((k, m))
    return out


# ---------------------------------------------------------------------------
# Independent word-triviality oracles


def bfs_trivial(letters, commutes, cap=200_000) -> bool:
    """Breadth-first reduction to the empty word.

    Moves: delete an adjacent inverse pair, swap adjacent commuting
    letters, rotate.  Letters are (generator, sign) pairs; commutes is a
    set of frozenset pairs of generators.
    """
    start = tuple(letters)
    if not start:
        return True
    seen = {start}
    queue = deque([start])
    steps = 0
    while queue:
        w = queue.popleft()
        steps += 1
        if steps > cap:
            raise RuntimeError("bfs oracle exceeded its cap")
        n = len(w)
        nexts = []
        nexts.append(w[1:] + w[:1])
        for j in range(n):
            k = (j + 1) % n
            a, b = w[j], w[k]
            if a[0] == b[0] and a[1] == -b[1]:
                if k > j:
                    nexts.append(w[:j] + w[j + 2 :])
                else:
                    nexts.append(w[1:-1])
            elif a[0] != b[0] and frozenset((a[0], b[0])) in commutes:
                if k > j:
                    nexts.append(w[:j] + (b, a) + w[j + 2 :])
                else:
                    nexts.append((a,) + w[1:-1] + (b,))
        for nw in nexts:
            if not nw:
                return True
            if nw not in seen:
                seen.add(nw)
                queue.append(nw)
    return False


def subset_dp_trivial(letters, commutes) -> bool:
    """Pair-deletion oracle over subsets of alive positions.

    A pair of inverse letters may be deleted when all alive letters
    strictly inside one of the two arcs between them commute with the
    pair's generator; the word is trivial when some deletion order
    empties it.
    """
    n = len(letters)
    if n == 0:
        return True
    if n % 2:
        return False

    def commute(g, h):
        return g == h or frozenset((g, h)) in commutes

    @lru_cache(maxsize=None)
    def solve(alive: frozenset) -> bool:
        if not alive:
            return True
        order = sorted(alive)
        for ai, p in enumerate(order):
            for q in order[ai + 1 :]:
                a, b = letters[p], letters[q]
                if a[0] != b[0] or a[1] != -b[1]:
                    continue
                inner = [r for r in order if p < r < q]
                outer = [r for r in order if r < p or r > q]
                ok_in = all(commute(letters[r][0], a[0]) for r in inner)
                ok_out = all(commute(letters[r][0], a[0]) for r in outer)
                if (ok_in or ok_out) and solve(alive - {p, q}):
                    return True
        return False

    return solve(frozenset(range(n)))


def stack_trivial(word: TraceWord) -> bool:
    """Does the word reduce to nothing under cancellation and sliding?

    Standard piling argument: every letter drops a piece onto the stack
    of its own generator and a blocker onto one shared stack per
    non-commuting partner, so two letters interact exactly when they
    must.  A letter cancels the top piece of its stack exactly when that
    piece, blockers included, is fully exposed.  Triviality is
    conjugation-invariant, so testing one rotation suffices for the
    cyclic word.
    """
    gens = sorted({g for g, _ in word.letters}, key=repr)
    stacks: dict[Gen, list] = {g: [] for g in gens}
    edges: dict[frozenset, list] = {}
    partners = {
        g: [h for h in gens if h != g and not word.commute(h, g)] for g in gens
    }
    for g in gens:
        for h in partners[g]:
            edges.setdefault(frozenset((g, h)), [])
    counter = 0
    for g, e in word.letters:
        mine = [edges[frozenset((g, h))] for h in partners[g]]
        top = stacks[g][-1] if stacks[g] else None
        if top is not None and top[1] == -e:
            pid = top[0]
            if all(s and s[-1] == pid for s in mine):
                stacks[g].pop()
                for s in mine:
                    s.pop()
                continue
        counter += 1
        stacks[g].append((counter, e))
        for s in mine:
            s.append(counter)
    return all(not s for s in stacks.values()) and all(
        not s for s in edges.values()
    )


def recursive_iter_matchings(word, preassigned, budget):
    """The diagram search as it was before it kept an explicit stack.

    One generator frame per chosen pair, so a word of more than about
    2,000 letters overflows the interpreter's recursion limit.  Same
    prunes, same order and the same budget charges as
    `traces._iter_matchings`.
    """
    n = len(word)
    _, gid, nbrs = word._graph
    sgn = [e for _, e in word.letters]
    base = [tuple(sorted(p)) for p in preassigned]
    used = set()
    for p, q in base:
        if p in used or q in used:
            raise MalformedDiagram(f"preassigned pairs reuse position {p},{q}")
        used.update((p, q))

    sums = [0] * len(nbrs)
    for g, e in zip(gid, sgn):
        sums[g] += e
    if any(sums):
        return

    def compatible(pairs, cand):
        near = nbrs[gid[cand[0]]]
        for other in pairs:
            if gid[other[0]] not in near and _crosses(cand, other):
                return False
        p, q = cand
        balance = {}
        for r in range(p + 1, q):
            if r not in used_now and gid[r] not in near:
                balance[gid[r]] = balance.get(gid[r], 0) + sgn[r]
        return not any(balance.values())

    used_now = set(used)
    chosen = list(base)

    def rec():
        if budget is not None:
            budget.charge()
        p = next((r for r in range(n) if r not in used_now), None)
        if p is None:
            d = CancellationDiagram(frozenset(chosen))
            if diagram_valid(word, d):
                yield d
            return
        g, e = gid[p], sgn[p]
        for q in range(p + 1, n):
            if q in used_now or gid[q] != g or sgn[q] != -e:
                continue
            cand = (p, q)
            if not compatible(chosen, cand):
                continue
            used_now.update(cand)
            chosen.append(cand)
            yield from rec()
            chosen.pop()
            used_now.difference_update(cand)

    yield from rec()


# ---------------------------------------------------------------------------
# Induction and scheme oracles: the induced diagrams listed in full, as the
# scheme search did before it tried them lazily


def eager_induce_candidates(
    d_fine: CancellationDiagram,
    corr: RefinementCorrespondence,
    budget: Optional[Budget] = None,
    cap: int = 100_000,
) -> tuple[CancellationDiagram, ...]:
    """Every valid coarse diagram containing the forced pairs, listed up front.

    CapExceeded past cap, charged to the budget; a forced pair of
    non-inverse letters is a NoInducedDiagram.
    """
    coarse = corr.coarse_word.trace
    forced = _forced_pairs(d_fine, corr)
    out: list[CancellationDiagram] = []
    try:
        for d in _iter_matchings(coarse, forced, budget):
            out.append(d)
            if len(out) > cap:
                raise CapExceeded(
                    f"more than {cap} valid diagrams", partial=tuple(out[:cap])
                )
    except MalformedDiagram as exc:
        raise NoInducedDiagram(str(exc)) from exc
    return tuple(out)


def induce_diagram(
    d_fine: CancellationDiagram,
    corr: RefinementCorrespondence,
    cap: int = 100_000,
) -> tuple[CancellationDiagram, ...]:
    """All coarse diagrams consistent with a fine diagram across a refinement.

    Fine pairs whose two positions are end sub-letters of two different
    coarse letters force those coarse letters to pair; the result is
    every valid coarse diagram containing the forced pairs.  An empty
    result raises NoInducedDiagram.
    """
    out = eager_induce_candidates(d_fine, corr, cap=cap)
    if not out:
        raise NoInducedDiagram(
            f"no valid coarse diagram extends forced pairs of {sorted(d_fine.pairs)}"
        )
    return out


def eager_coherent_scheme(words, refinements, caps: SearchCaps = SearchCaps()) -> CoherentScheme:
    """`traces.coherent_scheme` as it was when it listed every induced diagram.

    Each level's word is piled first, and every chain step enumerates
    all its induced coarse diagrams, against caps.per_level and the work
    budget, before it tries the first.
    """
    ws = [w.trace for w in words]
    if len(refinements) != len(ws) - 1:
        raise ValueError(
            f"{len(ws)} words need {len(ws) - 1} refinements, got {len(refinements)}"
        )
    for idx, w in enumerate(ws):
        if not trace_trivial(w):
            raise NotFoundError(idx + 1, f"level-{idx + 1} word is not trivial")
    n = len(ws)
    budget = Budget(caps.work)
    dead: set = set()
    blocked = [n]

    def chain(idx, d):
        if idx == 0:
            return [d]
        if (idx, d) in dead:
            return None
        try:
            cands = eager_induce_candidates(
                d, refinements[idx - 1], budget=budget, cap=caps.per_level
            )
        except NoInducedDiagram:
            cands = ()
        if not cands:
            blocked[0] = min(blocked[0], idx)
        for c in cands:
            sub = chain(idx - 1, c)
            if sub is not None:
                return sub + [d]
        dead.add((idx, d))
        return None

    count = 0
    any_top = False
    for d_top in _iter_matchings(ws[n - 1], (), budget):
        any_top = True
        count += 1
        if count > caps.per_level:
            raise CapExceeded(
                f"more than {caps.per_level} diagrams at level {n}", partial=None
            )
        result = chain(n - 1, d_top)
        if result is not None:
            return CoherentScheme(tuple(ws), tuple(result))
    if not any_top:
        blocked[0] = n
    raise NotFoundError(blocked[0], f"every chain blocked at level {blocked[0]}")


def _deletable(word: TraceWord, alive: set[int], p: int, q: int) -> bool:
    """Can (p, q) cancel now: one side of the chord all commutes with it."""
    _, gid, nbrs = word._graph
    near = nbrs[gid[p]]
    if all(gid[r] in near for r in alive if p < r < q):
        return True
    return all(gid[r] in near for r in alive if r < p or r > q)


def scan_diagram_valid(word: TraceWord, diagram: CancellationDiagram) -> bool:
    """Greedy nested elimination; order of deletions does not matter.

    The check as it was before it counted blockers: every live position
    is rescanned for every remaining pair in every round.
    """
    _check_matching(word, diagram)
    alive = set(range(len(word)))
    remaining = list(diagram.sorted_pairs)
    while remaining:
        progress = False
        kept = []
        for p, q in remaining:
            if _deletable(word, alive, p, q):
                alive.discard(p)
                alive.discard(q)
                progress = True
            else:
                kept.append((p, q))
        remaining = kept
        if not progress:
            return False
    return True


def make_trace(tokens, commuting=()) -> TraceWord:
    return TraceWord.from_strings(tokens, commuting)


# ---------------------------------------------------------------------------
# Word and walk builders


def word_from_letters(seq, level, pairs) -> CyclicWord:
    """Assemble a word from (corridor, sign) pairs with synthetic marks."""
    n = max(1, len(pairs))
    letters = []
    for j, (corr, sign) in enumerate(pairs):
        start = Fraction(j, n)
        iv = CrossingInterval(start, start + Fraction(1, 2 * n), corr, sign)
        letters.append(Letter(corr, sign, iv))
    from carpetloop import crossing_relation

    present = {l.generator for l in letters}
    rel = frozenset(p for p in crossing_relation(seq, level) if p <= present)
    return CyclicWord(level, tuple(letters), rel)


def _corridor_lookup(seq, level):
    table = {}
    for c in corridors(seq, level):
        e0, e1 = c.extent_units()
        for lane in range(e0, e1):
            table[(c.orientation, c.stratum, lane)] = c
    return table


def _move_letter(table, cell, move):
    """Corridor and sign for a 2-step move between even-even cells."""
    a, b = cell
    da, db = move
    if da:
        stratum = (a + da + 1) // 2 if da > 0 else (a - 1 + 1) // 2
        corr = table.get(("V", stratum, b))
        sign = 1 if da > 0 else -1
    else:
        stratum = (b + db + 1) // 2 if db > 0 else (b - 1 + 1) // 2
        corr = table.get(("H", stratum, a))
        sign = 1 if db > 0 else -1
    return corr, sign


def _walk_ok(seq, level, cell, move):
    n = 3**level
    a, b = cell
    da, db = move
    na, nb = a + 2 * da, b + 2 * db
    if not (0 <= na < n and 0 <= nb < n):
        return False
    mid = (a + da, b + db)
    return seq.cell_in_space(mid[0], mid[1], level) and seq.cell_in_space(
        na, nb, level
    )


def out_and_back_word(seq, level, rng: random.Random, max_len=4) -> CyclicWord:
    """A retraced cell-walk word: forward moves, then exact reversal."""
    n = 3**level
    table = _corridor_lookup(seq, level)
    while True:
        evens = [
            (a, b)
            for a in range(0, n, 2)
            for b in range(0, n, 2)
            if seq.cell_in_space(a, b, level)
        ]
        cell = rng.choice(evens)
        moves = []
        cur = cell
        for _ in range(rng.randint(1, max_len)):
            opts = [
                mv
                for mv in ((1, 0), (-1, 0), (0, 1), (0, -1))
                if _walk_ok(seq, level, cur, mv)
            ]
            if not opts:
                break
            mv = rng.choice(opts)
            moves.append((cur, mv))
            cur = (cur[0] + 2 * mv[0], cur[1] + 2 * mv[1])
        if not moves:
            continue
        pairs = []
        for c, mv in moves:
            corr, sign = _move_letter(table, c, mv)
            assert corr is not None
            pairs.append((corr, sign))
        for c, mv in reversed(moves):
            back = (-mv[0], -mv[1])
            dest = (c[0] + 2 * mv[0], c[1] + 2 * mv[1])
            corr, sign = _move_letter(table, dest, back)
            assert corr is not None
            pairs.append((corr, sign))
        return word_from_letters(seq, level, pairs)


def closed_walk_word(seq, level, rng: random.Random, wander=6) -> CyclicWord:
    """A random cell-walk word closed up by a shortest path back home."""
    n = 3**level
    table = _corridor_lookup(seq, level)
    evens = [
        (a, b)
        for a in range(0, n, 2)
        for b in range(0, n, 2)
        if seq.cell_in_space(a, b, level)
    ]
    while True:
        start = rng.choice(evens)
        cur = start
        moves = []
        for _ in range(rng.randint(2, wander)):
            opts = [
                mv
                for mv in ((1, 0), (-1, 0), (0, 1), (0, -1))
                if _walk_ok(seq, level, cur, mv)
            ]
            if not opts:
                break
            mv = rng.choice(opts)
            moves.append((cur, mv))
            cur = (cur[0] + 2 * mv[0], cur[1] + 2 * mv[1])
        # close up with BFS over even-even cells
        prev = {cur: None}
        queue = deque([cur])
        while queue:
            c = queue.popleft()
            if c == start:
                break
            for mv in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if _walk_ok(seq, level, c, mv):
                    nc = (c[0] + 2 * mv[0], c[1] + 2 * mv[1])
                    if nc not in prev:
                        prev[nc] = (c, mv)
                        queue.append(nc)
        if start not in prev:
            continue
        path = []
        c = start
        while prev[c] is not None:
            pc, mv = prev[c]
            path.append((pc, mv))
            c = pc
        moves.extend(reversed(path))
        if not moves:
            continue
        pairs = []
        for c, mv in moves:
            corr, sign = _move_letter(table, c, mv)
            assert corr is not None
            pairs.append((corr, sign))
        return word_from_letters(seq, level, pairs)


def realized_loop(seq, word, ray_levels=()):
    """Realize a word, or None when the canonical route does not exist.

    With ray_levels, also discard loops that park a vertex on a puncture
    counting ray at one of those levels, since free-group comparisons
    are undefined for them.
    """
    try:
        loop = realize_word(word, seq)
    except Unroutable:
        return None
    if ray_levels:
        from carpetloop import puncture_word
        from carpetloop.errors import DegeneratePosition

        try:
            for i in ray_levels:
                puncture_word(loop, seq, i)
        except DegeneratePosition:
            return None
    return loop


# ---------------------------------------------------------------------------
# Convergence-gap oracle: the triangle-pair overlay


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _in_triangle(tri, p):
    s0 = _cross(tri[0], tri[1], p)
    s1 = _cross(tri[1], tri[2], p)
    s2 = _cross(tri[2], tri[0], p)
    return (s0 >= 0 and s1 >= 0 and s2 >= 0) or (s0 <= 0 and s1 <= 0 and s2 <= 0)


def _affine_value(dom, val, p):
    (ax, ay), (bx, by), (cx, cy) = dom
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    u = ((p[0] - ax) * (cy - ay) - (p[1] - ay) * (cx - ax)) / det
    v = ((bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)) / det
    return (
        val[0][0] + u * (val[1][0] - val[0][0]) + v * (val[2][0] - val[0][0]),
        val[0][1] + u * (val[1][1] - val[0][1]) + v * (val[2][1] - val[0][1]),
    )


def _segment_contacts(a, b, c, d):
    """Every corner two closed segments make: crossings, touches, overlap ends."""
    d1 = _cross(a, b, c)
    d2 = _cross(a, b, d)
    d3 = _cross(c, d, a)
    d4 = _cross(c, d, b)
    out = []
    if d1 == 0 and d2 == 0:
        axis = 0 if a[0] != b[0] else 1
        lo1, hi1 = sorted((a[axis], b[axis]))
        lo2, hi2 = sorted((c[axis], d[axis]))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo <= hi:
            for v in {lo, hi}:
                for p in (a, b, c, d):
                    if p[axis] == v:
                        out.append(p)
                        break
        return out
    if (d1 >= 0) != (d2 >= 0) or d1 == 0 or d2 == 0:
        if (d3 >= 0) != (d4 >= 0) or d3 == 0 or d4 == 0:
            if d1 != d2:
                t = d1 / (d1 - d2)
                if 0 <= t <= 1:
                    out.append((c[0] + t * (d[0] - c[0]), c[1] + t * (d[1] - c[1])))
    return out


def gap_oracle(h1, h2):
    """Exact squared sup-distance of two fillings by brute-force overlay.

    For every pair of non-degenerate triangles, one per map, whose boxes
    meet, evaluates both affine maps at every corner of their
    intersection: each triangle's vertices inside the other and every
    contact of their edges.  Returns (max_sq, witness), the witness the
    least corner in (x, y) order where max_sq is reached.
    """

    def mesh(h):
        return [
            (dom, val)
            for f in h.fills
            for dom, val in f.triangles
            if _cross(dom[0], dom[1], dom[2]) != 0
        ]

    def box(tri):
        xs = [p[0] for p in tri]
        ys = [p[1] for p in tri]
        return min(xs), max(xs), min(ys), max(ys)

    second = [(dom, val, box(dom)) for dom, val in mesh(h2)]
    max_sq, witness = Fraction(0), None
    seen = set()
    for dom1, val1 in mesh(h1):
        b1 = box(dom1)
        for dom2, val2, b2 in second:
            if b1[1] < b2[0] or b2[1] < b1[0] or b1[3] < b2[2] or b2[3] < b1[2]:
                continue
            corners = [p for p in dom1 if _in_triangle(dom2, p)]
            corners += [p for p in dom2 if _in_triangle(dom1, p)]
            for j in range(3):
                for k in range(3):
                    corners += _segment_contacts(
                        dom1[j], dom1[(j + 1) % 3], dom2[k], dom2[(k + 1) % 3]
                    )
            for p in corners:
                if p in seen:
                    continue
                seen.add(p)
                v1 = _affine_value(dom1, val1, p)
                v2 = _affine_value(dom2, val2, p)
                d = (v1[0] - v2[0]) ** 2 + (v1[1] - v2[1]) ** 2
                if d > max_sq or d == max_sq and witness is not None and p < witness:
                    max_sq, witness = d, p
    return max_sq, witness


# ---------------------------------------------------------------------------
# Rational-arithmetic oracles: the loop and circle maps, the convergence gap
# and the containment check as they were before they worked in integers


def fraction_point_at(loop, t: Fraction) -> Point:
    """`PolyLoop.point_at` in Fraction arithmetic."""
    n = len(loop.vertices)
    t = t - (t.numerator // t.denominator)  # reduce mod 1
    u = t * n
    j = u.numerator // u.denominator
    s = u - j
    p, q = loop.vertices[j % n], loop.vertices[(j + 1) % n]
    return (p[0] + s * (q[0] - p[0]), p[1] + s * (q[1] - p[1]))


def fraction_circle_point(t: Fraction) -> Point:
    """`homotopy.circle_point` in Fraction arithmetic."""
    t = t - (t.numerator // t.denominator)
    q = (4 * t).numerator // (4 * t).denominator
    u = 4 * t - q
    den = 1 + u * u
    x, y = (1 - u * u) / den, 2 * u / den
    for _ in range(q):
        x, y = -y, x
    return (x, y)


def _segments_cross(a, b, c, d):
    """Parameters (s, t) of a proper crossing a+s(b-a) = c+t(d-c), else None."""
    d1 = _cross(a, b, c)
    d2 = _cross(a, b, d)
    d3 = _cross(c, d, a)
    d4 = _cross(c, d, b)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return d3 / (d3 - d4), d1 / (d1 - d2)
    return None


def _fraction_triangles(h) -> list:
    """The map's non-degenerate (domain, values) triangles, in fill order."""
    return [
        (dom, val)
        for fill in h.fills
        for dom, val in fill.triangles
        if _cross(dom[0], dom[1], dom[2]) != 0
    ]


def _fraction_eval_in_polygon(h, p):
    """The value from the first triangle in fill order that holds p."""
    for dom, val in _fraction_triangles(h):
        if _in_triangle(dom, p):
            return _affine_value(dom, val, p)
    raise AssertionError(f"point {p} not covered by any face")


def _point_key(p) -> tuple[int, int, int, int]:
    """Exact identity of a point; hashes faster than a pair of Fractions."""
    return (p[0].numerator, p[0].denominator, p[1].numerator, p[1].denominator)


def _overlay_index(h, ids, points):
    """Distinct vertices with their values, and unique edges, of the mesh.

    Vertex ids are shared through `ids` by the two meshes of a gap;
    `points` holds each id's point and its floats.  Edges are id pairs,
    kept in fill order.
    """
    values = {}
    edges = {}
    for dom, val in _fraction_triangles(h):
        js = []
        for p, v in zip(dom, val):
            k = _point_key(p)
            j = ids.get(k)
            if j is None:
                j = ids[k] = len(points)
                points.append((p, float(p[0]), float(p[1])))
            if values.setdefault(j, v) != v:
                raise AssertionError(f"map takes two values at mesh vertex {p}")
            js.append(j)
        for a, b in ((js[0], js[1]), (js[1], js[2]), (js[2], js[0])):
            edges[(a, b) if a < b else (b, a)] = None
    return values, edges


_GRID = 16  # buckets per side of the gap's float grid over [-1, 1]^2


def _bucket_of(t: float) -> int:
    b = int((t + 1.0) * _GRID / 2.0)
    return min(_GRID - 1, max(0, b))


def fraction_convergence_gap(h1, h2) -> GapReport:
    """`homotopy.convergence_gap` with every exact step in Fractions.

    The same edge-pair overlay over the same float filters, its pairs
    found by a 16x16 float grid of buckets; crossings are `_segments_cross`
    and `_lerp`, corners keyed by `_point_key`.  Of the corners where the
    maximum is reached, the witness is the least in (x, y) order.  The
    caller checks compatibility.
    """
    ids = {}
    points = []
    values1, edges1 = _overlay_index(h1, ids, points)
    values2, edges2 = _overlay_index(h2, ids, points)

    max_sq = Fraction(0)
    witness = None

    def consider(p, v1, v2) -> None:
        nonlocal max_sq, witness
        d = (v1[0] - v2[0]) ** 2 + (v1[1] - v2[1]) ** 2
        if d > max_sq or d == max_sq and witness is not None and p < witness:
            max_sq = d
            witness = p

    for j, v1 in values1.items():
        p = points[j][0]
        v2 = values2.get(j)
        consider(p, v1, v2 if v2 is not None else _fraction_eval_in_polygon(h2, p))
    for j, v2 in values2.items():
        if j not in values1:
            p = points[j][0]
            consider(p, _fraction_eval_in_polygon(h1, p), v2)

    grid = {}
    for n, (c, d) in enumerate(edges2):
        _, cx, cy = points[c]
        _, dx, dy = points[d]
        u0, u1 = min(cx, dx) - _BOX_PAD, max(cx, dx) + _BOX_PAD
        v0, v1 = min(cy, dy) - _BOX_PAD, max(cy, dy) + _BOX_PAD
        entry = (n, c, d, cx, cy, dx, dy, u0, u1, v0, v1)
        for gx in range(_bucket_of(u0), _bucket_of(u1) + 1):
            for gy in range(_bucket_of(v0), _bucket_of(v1) + 1):
                grid.setdefault((gx, gy), []).append(entry)

    pairs_checked = 0
    crossings = set()
    seen = [-1] * len(edges2)
    for m, (a, b) in enumerate(edges1):
        pa, ax, ay = points[a]
        pb, bx, by = points[b]
        x0, x1 = min(ax, bx) - _BOX_PAD, max(ax, bx) + _BOX_PAD
        y0, y1 = min(ay, by) - _BOX_PAD, max(ay, by) + _BOX_PAD
        for gx in range(_bucket_of(x0), _bucket_of(x1) + 1):
            for gy in range(_bucket_of(y0), _bucket_of(y1) + 1):
                for n, c, d, cx, cy, dx, dy, u0, u1, v0, v1 in grid.get((gx, gy), ()):
                    if seen[n] == m:
                        continue
                    seen[n] = m
                    if x1 < u0 or u1 < x0 or y1 < v0 or v1 < y0:
                        continue
                    if a == c or a == d or b == c or b == d:
                        continue
                    s = _float_orient(ax, ay, bx, by, cx, cy)
                    if s and s == _float_orient(ax, ay, bx, by, dx, dy):
                        continue
                    s = _float_orient(cx, cy, dx, dy, ax, ay)
                    if s and s == _float_orient(cx, cy, dx, dy, bx, by):
                        continue
                    pairs_checked += 1
                    st = _segments_cross(pa, pb, points[c][0], points[d][0])
                    if st is None:
                        continue
                    x = _lerp(pa, pb, st[0])
                    k = _point_key(x)
                    if k in ids or k in crossings:
                        continue
                    crossings.add(k)
                    consider(
                        x,
                        _lerp(values1[a], values1[b], st[0]),
                        _lerp(values2[c], values2[d], st[1]),
                    )

    bound = Fraction(6, _pow3(h1.level))
    return GapReport(
        level_pair=(h1.level, h2.level),
        max_sq=max_sq,
        bound=bound,
        holds=max_sq <= bound * bound,
        witness=witness,
        pairs_checked=pairs_checked,
    )


def _triangle_hole_hit(tri, seq, i):
    x0 = min(p[0] for p in tri)
    x1 = max(p[0] for p in tri)
    y0 = min(p[1] for p in tri)
    y1 = max(p[1] for p in tri)
    for s in range(1, i + 1):
        n = _pow3(s)
        k_lo = max(1, -((-(x0 * n).numerator) // ((x0 * n).denominator * 2)))
        k_hi = min((n - 1) // 2, ((x1 * n + 1) / 2).__floor__())
        m_lo = max(1, -((-(y0 * n).numerator) // ((y0 * n).denominator * 2)))
        m_hi = min((n - 1) // 2, ((y1 * n + 1) / 2).__floor__())
        for k in range(k_lo, k_hi + 1):
            for m in range(m_lo, m_hi + 1):
                if not seq.has_hole(s, k, m):
                    continue
                rect = (
                    Fraction(2 * k - 1, n),
                    Fraction(2 * k, n),
                    Fraction(2 * m - 1, n),
                    Fraction(2 * m, n),
                )
                hit = _triangle_meets_open_rect(tri, rect)
                if hit is not None:
                    return hit
    return None


def fraction_verify_containment(h) -> ContainmentReport:
    """`homotopy.verify_containment` with Fraction candidate bounds."""
    violations = []
    for fill in h.fills:
        for _, val in fill.triangles:
            hit = _triangle_hole_hit(val, h.seq, h.level)
            if hit is not None:
                violations.append((fill.face, hit))
                break
    return ContainmentReport(
        ok=not violations,
        level=h.level,
        exact_faces=len(h.fills),
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Cellulation oracle: the chord cutting as it was before it kept an explicit
# stack


def recursive_build_cellulation(
    word: CyclicWord,
    diagram: CancellationDiagram,
    params: Optional[Iterable[Fraction]] = None,
) -> Cellulation:
    """`homotopy.build_cellulation` as it was when it recursed once per cut.

    Cuts the inscribed polygon along the diagram's chords; its nesting
    depth grows with the chord nesting of the diagram.

    Chords of one pair connect the end of each letter to the start of
    the other.  Crossing chords must belong to commuting corridors; the
    crossing points become interior nodes and every face is convex.
    """
    tw = word.trace
    if not diagram_valid(tw, diagram):
        raise MalformedDiagram("diagram is not valid for the word")
    marks = set(QUARTERS)
    for l in word.letters:
        marks.add(l.interval.start)
        marks.add(_mod1(l.interval.end))
    if params is not None:
        marks.update(_mod1(t) for t in params)
    ps = tuple(sorted(marks))
    nodes: list[Node] = [Node(circle_point(t), t) for t in ps]
    index_of = {t: j for j, t in enumerate(ps)}

    bands: list[Band] = []
    chords: list[BandChord] = []
    for bi, (p, q) in enumerate(diagram.sorted_pairs):
        lp, lq = word.letters[p], word.letters[q]
        bands.append(Band(bi, (p, q), lp.corridor))
        chords.append(
            BandChord(bi, index_of[_mod1(lp.interval.end)], index_of[lq.interval.start])
        )
        chords.append(
            BandChord(bi, index_of[_mod1(lq.interval.end)], index_of[lp.interval.start])
        )

    crossings: list[tuple[int, int, int]] = []
    faces: list[tuple[int, ...]] = []

    # Working chords: (a, b, band, chord_serial); serial preserved through cuts.
    work = [(c.a, c.b, c.band, k) for k, c in enumerate(chords)]

    def split(region: list[int], todo: list[tuple[int, int, int, int]]):
        if not todo:
            if len(region) >= 3:
                faces.append(tuple(region))
            return
        cut = todo[0]
        rest = todo[1:]
        ca, cb = cut[0], cut[1]
        ia, ib = region.index(ca), region.index(cb)
        if ia > ib:
            ia, ib = ib, ia
            ca, cb = cb, ca
        chain_a = region[ia : ib + 1]
        chain_b = region[ib:] + region[: ia + 1]
        interior_a = set(chain_a[1:-1])
        interior_b = set(chain_b[1:-1])
        pa, pb = nodes[ca].point, nodes[cb].point
        on_cut: list[tuple[Fraction, int]] = []
        todo_a: list = []
        todo_b: list = []
        for d in rest:
            du, dv = d[0], d[1]
            if {du, dv} == {ca, cb}:
                continue  # geometrically identical; the cut already separates
            su = "A" if du in interior_a else ("B" if du in interior_b else "E")
            sv = "A" if dv in interior_a else ("B" if dv in interior_b else "E")
            if su == "E" and sv == "E":
                raise AssertionError("distinct chord shares both cut endpoints")
            side = su if su != "E" else sv
            if "E" in (su, sv) or su == sv:
                (todo_a if side == "A" else todo_b).append(d)
                continue
            st = _segments_cross(pa, pb, nodes[du].point, nodes[dv].point)
            if st is None:
                raise AssertionError("straddling chord fails to cross the cut")
            if not tw.commute(bands[cut[2]].corridor.id, bands[d[2]].corridor.id):
                raise MalformedDiagram(
                    "chords of non-commuting corridors cross; the diagram "
                    "cannot come from a valid cancellation"
                )
            nodes.append(Node(_lerp(pa, pb, st[0]), None))
            xi = len(nodes) - 1
            crossings.append((xi, cut[3], d[3]))
            on_cut.append((st[0], xi))
            part_u = (du, xi, d[2], d[3])
            part_v = (xi, dv, d[2], d[3])
            (todo_a if su == "A" else todo_b).append(part_u)
            (todo_a if sv == "A" else todo_b).append(part_v)
        on_cut.sort()
        xs = [xi for _, xi in on_cut]
        boundary_a = chain_a + xs[::-1]
        boundary_b = chain_b + xs
        split(boundary_a, todo_a)
        split(boundary_b, todo_b)

    split(list(range(len(ps))), work)

    # Band membership: a band is the polygon piece between its two
    # chords; the reference centroid of the four chord endpoints sits
    # strictly inside it.
    half_planes = []
    for b in bands:
        c0, c1 = chords[2 * b.index], chords[2 * b.index + 1]
        ref = _centroid(
            [nodes[c0.a].point, nodes[c0.b].point, nodes[c1.a].point, nodes[c1.b].point]
        )
        sides = []
        for c in (c0, c1):
            s = _cross(nodes[c.a].point, nodes[c.b].point, ref)
            if s == 0:
                raise AssertionError("band reference point on its own chord")
            sides.append((nodes[c.a].point, nodes[c.b].point, s > 0))
        half_planes.append(sides)

    final_faces = []
    for fnodes in faces:
        cen = _centroid([nodes[j].point for j in fnodes])
        mem = []
        for b in bands:
            ok = True
            for pa, pb, positive in half_planes[b.index]:
                s = _cross(pa, pb, cen)
                if s == 0 or (s > 0) != positive:
                    ok = False
                    break
            if ok:
                mem.append(b.index)
        if len(mem) > 2:
            raise AssertionError(f"face inside {len(mem)} bands")
        if len(mem) == 2:
            o1 = bands[mem[0]].corridor.orientation
            o2 = bands[mem[1]].corridor.orientation
            if o1 == o2:
                raise AssertionError("face inside two same-orientation bands")
        final_faces.append(Face(tuple(fnodes), tuple(mem)))

    return Cellulation(
        params=ps,
        nodes=tuple(nodes),
        faces=tuple(final_faces),
        bands=tuple(bands),
        chords=tuple(chords),
        crossings=tuple(crossings),
    )


def random_explicit_space(depth, rng: random.Random, keep=0.5) -> DefiningSequence:
    """Each level's eligible squares, each removed with probability `keep`."""
    full = DefiningSequence.full_carpet(depth)
    removed = [
        sq
        for i in range(1, depth + 1)
        for sq in sorted(eligible_squares(full, i), key=lambda q: q.key())
        if rng.random() < keep
    ]
    return DefiningSequence.explicit(depth, removed)


# ---------------------------------------------------------------------------
# Point and cell membership helpers that only tests use


def level_space_contains(seq, i, p) -> bool:
    """Is the point p of the unit square in the level-i space?"""
    seq.check_level(i)
    if not (0 <= p[0] <= 1 and 0 <= p[1] <= 1):
        raise ValueError(f"point {p} outside the unit square")
    return not seq.point_in_removed_interior(p, i)


def inner_contains(c: Corridor, p) -> bool:
    """Extent-closed, transversally-open membership in a corridor."""
    lo, hi = c.transverse
    e0, e1 = c.extent
    if c.orientation == "H":
        return e0 <= p[0] <= e1 and lo < p[1] < hi
    return lo < p[0] < hi and e0 <= p[1] <= e1


@dataclass(frozen=True)
class CellType:
    level: int
    cell: tuple[int, int]
    kind: int  # number of corridors the cell lies in: 0, 1, or 2

    @property
    def rect(self):
        n = 3**self.level
        a, b = self.cell
        return (Fraction(a, n), Fraction(a + 1, n), Fraction(b, n), Fraction(b + 1, n))


def classify_squares(seq, i) -> tuple[CellType, ...]:
    """Kept scale-i cells with their corridor count.

    A kept cell in an odd row lies in exactly one horizontal corridor,
    and symmetrically for columns, so the count is the coordinate parity
    sum: 0 free, 1 corridor interior, 2 junction.
    """
    seq.check_level(i)
    n = 3**i
    return tuple(
        CellType(i, (a, b), (a % 2) + (b % 2))
        for a in range(n)
        for b in range(n)
        if seq.cell_in_space(a, b, i)
    )


# ---------------------------------------------------------------------------
# Crossing-interval oracle: every edge scanned once per strip, and every
# corridor filtered once per strip


def _scan_strip_events(loop, lo, hi, axis):
    """(param, line: 0 = lo / 1 = hi, direction) of one strip's crossings."""
    events = []
    for p, q, t0, t1 in loop.edges():
        a, b = p[axis], q[axis]
        for which, v in ((0, lo), (1, hi)):
            if a == v and b == v:
                raise DegeneratePosition(f"edge at t={t0} lies on the line {'xy'[axis]}={v}")
            if a < v < b or b < v < a:
                t = t0 + (t1 - t0) * (v - a) / (b - a)
                events.append((t, which, 1 if b > a else -1))
    events.sort()
    return events


def scan_crossing_intervals(loop, seq, i):
    """Full-crossing intervals per orientation, one strip at a time."""
    n = 3**i
    out = {"H": [], "V": []}
    corr = corridors(seq, i)
    for orientation, axis in (("H", 1), ("V", 0)):
        along = 1 - axis
        for m in range(1, (n - 1) // 2 + 1):
            events = _scan_strip_events(loop, Fraction(2 * m - 1, n), Fraction(2 * m, n), axis)
            if not events:
                continue
            strip = [c for c in corr if c.orientation == orientation and c.stratum == m]
            for (t0, w0, d0), (t1, w1, _) in zip(events, events[1:] + events[:1]):
                if not ((w0 == 0 and d0 > 0) or (w0 == 1 and d0 < 0)):
                    continue
                end = t1 if t1 > t0 else t1 + 1
                mid = (t0 + end) / 2
                pm = loop.point_at(mid - (mid.numerator // mid.denominator))
                home = next(c for c in strip if c.extent[0] <= pm[along] <= c.extent[1])
                out[orientation].append(
                    CrossingInterval(t0, end, home, 1 if w0 == 0 else -1, w1 != w0)
                )
    return (
        tuple(sorted(out["H"], key=lambda c: c.start)),
        tuple(sorted(out["V"], key=lambda c: c.start)),
    )


# ---------------------------------------------------------------------------
# Hole-lookup oracles: the per-call scans of the removed squares and the
# full-carpet digit tests that the hole index replaced


def _square_covers_cell(sq, a, b, i) -> bool:
    t = 3 ** (i - sq.level)
    return (2 * sq.k - 1) * t <= a and a + 1 <= 2 * sq.k * t and (
        (2 * sq.m - 1) * t <= b and b + 1 <= 2 * sq.m * t
    )


def scan_cell_in_space(holes, a, b, i) -> bool:
    """Kept iff no square of `holes` of level <= i covers the scale-i cell."""
    n = 3**i
    if not (0 <= a < n and 0 <= b < n):
        return False
    return not any(sq.level <= i and _square_covers_cell(sq, a, b, i) for sq in holes)


def digit_cell_in_space(a, b, i) -> bool:
    """Full carpet: lost iff both digits are odd at some scale."""
    n = 3**i
    if not (0 <= a < n and 0 <= b < n):
        return False
    return not any((a // 3**s) % 2 == 1 and (b // 3**s) % 2 == 1 for s in range(i))


def scan_point_in_removed_interior(holes, p, i) -> bool:
    def inside(sq):
        n = 3**sq.level
        x0, x1 = Fraction(2 * sq.k - 1, n), Fraction(2 * sq.k, n)
        y0, y1 = Fraction(2 * sq.m - 1, n), Fraction(2 * sq.m, n)
        return x0 < p[0] < x1 and y0 < p[1] < y1

    return any(sq.level <= i and inside(sq) for sq in holes)


def digit_point_in_removed_interior(p, i) -> bool:
    """Full carpet: both scaled coordinates non-integral with odd floor."""
    for s in range(1, i + 1):
        ux, uy = p[0] * 3**s, p[1] * 3**s
        fx, fy = ux.numerator // ux.denominator, uy.numerator // uy.denominator
        if fx % 2 == 1 and fy % 2 == 1 and ux != fx and uy != fy:
            return True
    return False


def scan_covering_hole(holes, a, b, i):
    """First square of `holes` (in key order) of level <= i covering the cell."""
    for sq in holes:
        if sq.level <= i and _square_covers_cell(sq, a, b, i):
            return sq
    return None


def scan_corridors(seq, i):
    """Strip pieces between blocks found by scanning every removed square."""
    n = 3**i
    out = []
    for orientation in ("H", "V"):
        for m in range(1, (n - 1) // 2 + 1):
            blocks = []
            for sq in seq.removed:
                if sq.level > i:
                    continue
                t = 3 ** (i - sq.level)
                tr = sq.m if orientation == "H" else sq.k
                ex = sq.k if orientation == "H" else sq.m
                if (2 * tr - 1) * t <= 2 * m - 1 and 2 * m <= 2 * tr * t:
                    blocks.append(((2 * ex - 1) * t, 2 * ex * t))
            blocks.sort()
            lo = 0
            pieces = []
            for b0, b1 in blocks:
                if b0 > lo:
                    pieces.append((lo, b0))
                lo = max(lo, b1)
            if lo < n:
                pieces.append((lo, n))
            for e0, e1 in pieces:
                out.append(Corridor(orientation, i, m, (Fraction(e0, n), Fraction(e1, n))))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Cell-walk oracle: the Fraction walk that the integer edge walk replaced,
# cutting at every line crossing and reading each piece's midpoint


def _lines_between(a: Fraction, b: Fraction, n: int) -> range:
    """The scale-n lines j with j/n strictly between a and b, in order from a to b."""
    lo, hi = (a, b) if a <= b else (b, a)
    j0 = lo.numerator * n // lo.denominator + 1
    j1 = -(-hi.numerator * n // hi.denominator) - 1
    return range(j0, j1 + 1) if a <= b else range(j1, j0 - 1, -1)


def fraction_segment_cells(p, q, n):
    """Scale-n cells of the pieces of segment pq, in order along it.

    Cuts the segment where it crosses a scale-n line; each piece lies in
    the cell of its midpoint (for a piece on a line, the cell above or
    to the right of it).
    """
    cuts = {Fraction(0), Fraction(1)}
    for axis in (0, 1):
        a, b = p[axis], q[axis]
        for j in _lines_between(a, b, n):
            cuts.add((Fraction(j, n) - a) / (b - a))
    ts = sorted(cuts)
    for t0, t1 in zip(ts, ts[1:]):
        tm = (t0 + t1) / 2
        x = p[0] + tm * (q[0] - p[0])
        y = p[1] + tm * (q[1] - p[1])
        yield (x.numerator * n // x.denominator, y.numerator * n // y.denominator)


def contained_1d_eligible(i) -> set[tuple[int, int]]:
    """Level-i candidates (k, m) inside no earlier candidate, axis by axis."""

    def contained_1d(j, t):
        # Is [2j-1, 2j] (scale i) inside some [(2j'-1)t, 2j't] (t = 3^(i-s))?
        jp = -(-2 * j // (2 * t))
        return (2 * jp - 1) * t <= 2 * j - 1 and 2 * j <= 2 * jp * t

    half = (3**i - 1) // 2
    return {
        (k, m)
        for k in range(1, half + 1)
        for m in range(1, half + 1)
        if not any(
            contained_1d(k, 3 ** (i - s)) and contained_1d(m, 3 ** (i - s))
            for s in range(1, i)
        )
    }


# ---------------------------------------------------------------------------
# Ray-crossing oracle: every puncture tested against every edge, events
# sorted by exact edge parameter


def _scaled_ints(loop, seq, i):
    """Loop vertices, puncture centers, and rays over one common denominator."""
    den = 1
    for v in loop.vertices:
        for c in v:
            den = math.lcm(den, c.denominator)
    den = math.lcm(den, 2 * 3 ** i)
    verts = [
        (v[0].numerator * (den // v[0].denominator), v[1].numerator * (den // v[1].denominator))
        for v in loop.vertices
    ]
    cents = []
    for p in punctures(seq, i):
        cx, cy = p.center
        cents.append(
            (cx.numerator * (den // cx.denominator), cy.numerator * (den // cy.denominator))
        )
    return verts, cents


def scan_ray_crossings(loop, seq, i):
    """(edge index, edge parameter, puncture index, sign) events.

    Sign +1 means the edge crosses the ray counterclockwise around the
    puncture.  Vertices on a ray, or edges collinear with one, raise
    DegeneratePosition.
    """
    seq.check_level(i)
    ps = punctures(seq, i)
    verts, cents = _scaled_ints(loop, seq, i)
    n = len(verts)
    events = []
    for pi, ((zx, zy), p) in enumerate(zip(cents, ps)):
        dx, dy = p.ray
        for j in range(n):
            px, py = verts[j]
            qx, qy = verts[(j + 1) % n]
            # The ray points right and down; reject edges fully left of
            # or above the center before any multiplication.
            if px < zx and qx < zx:
                continue
            if py > zy and qy > zy:
                continue
            cp = dx * (py - zy) - dy * (px - zx)
            cq = dx * (qy - zy) - dy * (qx - zx)
            if cp == 0 and cq == 0:
                raise DegeneratePosition(
                    f"edge {j} is collinear with the ray of {p.hole.key()}"
                )
            if cp == 0 or cq == 0:
                vx, vy = (px, py) if cp == 0 else (qx, qy)
                if dx * (vx - zx) + dy * (vy - zy) > 0:
                    raise DegeneratePosition(
                        f"a vertex of edge {j} lies on the ray of {p.hole.key()}"
                    )
                continue
            if (cp > 0) == (cq > 0):
                continue
            # The segment meets the full line; keep forward hits only.
            tnum = (px - zx) * (qy - py) - (py - zy) * (qx - px)
            tden = cq - cp
            if tnum * tden <= 0:
                continue
            events.append((j, Fraction(cp, cp - cq), pi, 1 if cq > cp else -1))
    events.sort(key=lambda e: (e[0], e[1]))
    return events


# ---------------------------------------------------------------------------
# Whole-level oracles for the word-local relation and encoding: every H
# corridor of the level paired with every V corridor it meets, and the
# word's pairs filtered out of that


def scan_crossing_relation(seq, i):
    """Unordered pairs of level-i corridors whose inner regions meet."""
    seq.check_level(i)
    pairs = set()
    by_stratum = {}
    for c in corridors(seq, i):
        if c.orientation == "V":
            by_stratum.setdefault(c.stratum, []).append((c, *c.extent_units()))
    for h in corridors(seq, i):
        if h.orientation != "H":
            continue
        he0, he1 = h.extent_units()
        hs0 = 2 * h.stratum - 1
        # V strata with 2k-1 < he1 and he0 < 2k
        for k in range(he0 // 2 + 1, he1 // 2 + 1):
            for v, ve0, ve1 in by_stratum.get(k, ()):
                if ve1 > hs0 and ve0 < hs0 + 1:
                    pairs.add(frozenset((h.id, v.id)))
    return frozenset(pairs)


def scan_encode_word(loop, seq, i, relation=None):
    """The level-i word from the strip scan and the whole-level relation."""
    ih, iv = scan_crossing_intervals(loop, seq, i)
    letters = [Letter(c.corridor, c.sign, c) for c in ih + iv if c.full]
    letters.sort(key=lambda l: (l.interval.start, l.corridor))
    present = {l.generator for l in letters}
    if relation is None:
        relation = scan_crossing_relation(seq, i)
    return CyclicWord(i, tuple(letters), frozenset(p for p in relation if p <= present))


# ---------------------------------------------------------------------------
# Refinement oracle: every parent letter scans the whole fine word, and
# every fine letter scans every parent


def _mod1(t):
    return t - (t.numerator // t.denominator)


def _substrata(m):
    return (3 * m - 1, 3 * m)


def _scan_sub(fine, parent, stratum, param, end):
    for k, fl in enumerate(fine.letters):
        if fl.corridor.orientation != parent.corridor.orientation:
            continue
        if fl.corridor.stratum != stratum or fl.sign != parent.sign:
            continue
        t = fl.interval.start if end == "start" else _mod1(fl.interval.end)
        if t == param:
            return k
    return None


def _scan_sub_extent(parent, sub, j):
    pe, se = parent.corridor.extent, sub.corridor.extent
    if not (pe[0] <= se[0] and se[1] <= pe[1]):
        raise RefinementViolation(
            f"sub-letter {sub.text} extends outside parent {j} ({parent.text})"
        )


def _scan_open_meet(a, b):
    for shift in (-1, 0, 1):
        if a.start + shift < b.end and b.start < a.end + shift:
            return True
    return False


def scan_refinement_map(coarse, fine):
    """refinement_map by the O(L_coarse * L_fine) scans it replaced."""
    if fine.level != coarse.level + 1:
        raise ValueError(
            f"word levels {coarse.level} and {fine.level} are not consecutive"
        )
    ends = []
    for j, parent in enumerate(coarse.letters):
        lo_sub, hi_sub = _substrata(parent.corridor.stratum)
        first_sub = lo_sub if parent.sign > 0 else hi_sub
        last_sub = hi_sub if parent.sign > 0 else lo_sub
        first = _scan_sub(fine, parent, first_sub, parent.interval.start, "start")
        last = _scan_sub(fine, parent, last_sub, _mod1(parent.interval.end), "end")
        if first is None or last is None:
            raise RefinementViolation(
                f"letter {j} ({parent.text}) lacks a "
                f"{'first' if first is None else 'last'} sub-letter"
            )
        if first == last:
            raise RefinementViolation(
                f"letter {j} ({parent.text}) has coinciding boundary sub-letters"
            )
        _scan_sub_extent(parent, fine.letters[first], j)
        _scan_sub_extent(parent, fine.letters[last], j)
        ends.append((first, last))
    taken = {f for f, _ in ends} | {l for _, l in ends}
    for k, fl in enumerate(fine.letters):
        if k in taken or fl.corridor.orientation not in ("H", "V"):
            continue
        for j, parent in enumerate(coarse.letters):
            if fl.corridor.orientation != parent.corridor.orientation:
                continue
            if fl.corridor.stratum not in _substrata(parent.corridor.stratum):
                continue
            if _scan_open_meet(fl.interval, parent.interval):
                raise RefinementViolation(
                    f"fine letter {k} ({fl.text}) sits strictly inside "
                    f"parent letter {j} ({parent.text})"
                )
    return RefinementCorrespondence(coarse, fine, tuple(ends))


def role_of_fine(corr, fidx):
    """(parent index, "first" | "last") of a fine letter, or None if free."""
    for j, (f, l) in enumerate(corr.ends):
        if fidx == f:
            return (j, "first")
        if fidx == l:
            return (j, "last")
    return None


def free_fine_letters(corr):
    taken = {f for f, _ in corr.ends} | {l for _, l in corr.ends}
    return tuple(k for k in range(len(corr.fine_word)) if k not in taken)


# ---------------------------------------------------------------------------
# Word comparison and parsing helpers


def contains_param(interval, t):
    """Does the crossing interval hold parameter t, taken mod 1?"""
    t = _mod1(t)
    if t < interval.start:
        t += 1
    return interval.start <= t <= interval.end


def _rotated(seq, r):
    return list(seq[r:]) + list(seq[:r])


def _least_rotation(seq):
    best = 0
    for r in range(1, len(seq)):
        for a, b in zip(_rotated(seq, r), _rotated(seq, best)):
            if a == b:
                continue
            if a < b:
                best = r
            break
    return best


def canonical_rotation(word):
    keys = [(k[0][0], k[0][1], k[0][2], k[0][3], k[1]) for k in word.trace.letters]
    return _least_rotation(keys)


def cyclically_equal(a, b):
    """Same level and the same (generator, sign) sequence up to rotation."""
    if a.level != b.level or len(a) != len(b):
        return False
    return _rotated(a.trace.letters, canonical_rotation(a)) == _rotated(
        b.trace.letters, canonical_rotation(b)
    )


def corridor_by_id(seq: DefiningSequence, ident: tuple[str, int, int, Fraction]) -> Corridor:
    """The corridor with the given id; KeyError when the space has none."""
    orientation, level, stratum, e0 = ident
    seq.check_level(level)
    c = None
    if orientation in ("H", "V") and 1 <= stratum <= (_pow3(level) - 1) // 2:
        num, den = e0.as_integer_ratio()
        x, r = divmod(num * _pow3(level), den)
        c = _corridor_at(seq, orientation, level, stratum, x, r == 0)
    if c is None or c.extent[0] != e0:
        raise KeyError(f"no corridor with id {ident}")
    return c


_LETTER_RE = re.compile(r"^([HV]):(\d+):(\d+):(-?\d+/\d+)([+-])$")


def parse_word(text, seq, level=None):
    """Rebuild a word from letter tokens like "H:2:1:0/1+".

    Crossing positions are not part of the text, so letters get evenly
    spaced synthetic intervals; algebraic operations and realization do
    not depend on them.  The relation is built among the parsed letters'
    corridors.
    """
    tokens = text.split()
    letters = []
    n = max(1, len(tokens))
    lv = level
    for j, tok in enumerate(tokens):
        m = _LETTER_RE.match(tok)
        if not m:
            raise FormatError(f"bad letter token {tok!r}")
        orient, li, stratum, ext, sgn = m.groups()
        li = int(li)
        if lv is None:
            lv = li
        if li != lv:
            raise FormatError(f"letter {tok!r} is not at level {lv}")
        try:
            corr = corridor_by_id(seq, (orient, li, int(stratum), parse_frac(ext)))
        except KeyError:
            raise FormatError(f"no corridor {tok[:-1]!r} in this space") from None
        sign = 1 if sgn == "+" else -1
        start = Fraction(j, n)
        interval = CrossingInterval(start, start + Fraction(1, 2 * n), corr, sign)
        letters.append(Letter(corr, sign, interval))
    if lv is None:
        raise FormatError("empty word needs an explicit level")
    return CyclicWord(lv, tuple(letters), _relation({l.corridor for l in letters}))


_GEN_RE = re.compile(r"^g\[(\d+),(\d+),(\d+)\](?:\^(-?\d+))?$")


def parse_free_word(text, seq=None):
    """Rebuild a free word from generator tokens like "g[1,1,1]^-2"."""
    letters = []
    for tok in text.split():
        m = _GEN_RE.match(tok)
        if not m:
            raise FormatError(f"bad generator token {tok!r}")
        lv, k, mm, e = m.groups()
        try:
            sq = GridSquare(int(lv), int(k), int(mm))
        except ValueError as err:
            raise FormatError(str(err)) from err
        exp = int(e) if e else 1
        if seq is not None and sq not in seq.removed:
            raise FormatError(f"{tok!r} is not a removed square of this space")
        if exp == 0:
            continue
        step = 1 if exp > 0 else -1
        letters.extend((sq, step) for _ in range(abs(exp)))
    return FreeWord(tuple(letters))
