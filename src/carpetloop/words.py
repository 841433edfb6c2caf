"""Corridor crossing words: extraction, refinement, and realization.

A loop meets each level-i strip in a cyclic sequence of maximal closed
parameter intervals; the intervals whose two endpoint lines differ are
full crossings and become letters.  An interval belongs to the corridor
whose closed extent holds the along-coordinate of its entry crossing: the
closed extents of one strip are pairwise disjoint (the blocks between
them run from odd to even, at least one scale-i unit wide), and a valid
loop stays in one of them while it is in the strip.  Each edge is walked
in integers over its common denominator, so the entry coordinate is an
integer floor and an exactness flag.  A word is read from the strips the
loop crosses only: each crossing looks up its corridor in its own strip,
and the commutation relation is built among the word's own corridors, so
the cost follows the loop's letters rather than the level's holes.
Refinement relates the words of two consecutive levels; realization
inverts encoding for abstract words.  A word reaches the trace kernels
(piling, diagram checks and searches) only through its `trace`, built
once per word and shared by every consumer.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

from .errors import DegeneratePosition, RefinementViolation, Unroutable
from .grid import (
    Corridor,
    DefiningSequence,
    PolyLoop,
    Point,
    corridors,
    per_space,
    _axis_walk,
    _corridor_at,
    _over_common_denominator,
    _pow3,
)
from .traces import TraceWord

CorridorId = tuple[str, int, int, Fraction]


def _mod1(t: Fraction) -> Fraction:
    return t - (t.numerator // t.denominator)


@dataclass(frozen=True)
class CrossingInterval:
    """A maximal in-strip parameter interval.

    start is reduced mod 1; end may exceed 1 when the interval wraps
    through the loop basepoint.  full is True when the entry and exit
    lines differ, i.e. the interval is an actual crossing.
    """

    start: Fraction
    end: Fraction
    corridor: Corridor
    sign: int  # +1 entered at the lower/left boundary line, -1 otherwise
    full: bool = True


@dataclass(frozen=True)
class Letter:
    corridor: Corridor
    sign: int
    interval: CrossingInterval

    @property
    def generator(self) -> CorridorId:
        return self.corridor.id

    @property
    def text(self) -> str:
        return self.corridor.id_text + ("+" if self.sign > 0 else "-")


@dataclass(frozen=True)
class CyclicWord:
    """A cyclic sequence of corridor letters with a commutation relation.

    commutes holds unordered pairs of corridor ids whose inner regions
    intersect; only pairs among the letters present are kept.
    """

    level: int
    letters: tuple[Letter, ...]
    commutes: frozenset[frozenset]

    def __len__(self) -> int:
        return len(self.letters)

    @cached_property
    def trace(self) -> TraceWord:
        """The (corridor id, sign) letters with the relation, built once."""
        return TraceWord(tuple((l.generator, l.sign) for l in self.letters), self.commutes)

    @property
    def text(self) -> str:
        return " ".join(l.text for l in self.letters)


def crossing_intervals(
    loop: PolyLoop, seq: DefiningSequence, i: int
) -> tuple[tuple[CrossingInterval, ...], tuple[CrossingInterval, ...]]:
    """Full-crossing intervals of every level-i strip, per orientation.

    The loop must already be valid through level i; vertices off grid
    lines make every line crossing transversal and isolated.  Raises
    DegeneratePosition if an edge lies on a strip line.  Only the strips
    the loop crosses have their corridors built.

    Each edge is walked in integers over its common denominator; the
    corridor of an interval is the one whose closed extent holds the
    along-coordinate of its entry crossing.
    """
    seq.check_level(i)
    n = _pow3(i)
    vs = loop.vertices
    nv = len(vs)
    edges = [_over_common_denominator(p, q) for p, q in zip(vs, vs[1:] + vs[:1])]
    walks = []
    for orientation, axis in (("H", 1), ("V", 0)):
        # Per stratum, the crossings of its two lines as (r, param, which
        # line: 0 = lower / 1 = upper, entry).  Line j is the lower line
        # of stratum (j+1)//2 when j is odd and its upper line when j is
        # even.  Edges are walked in order and each edge's lines come in
        # order along it, so every list is in param order, and so is the
        # running count r of the crossings.  A crossing into the strip
        # (the lower line upwards or the upper line downwards) carries
        # its along-coordinate in scale-i units, as a floor and whether
        # it is exact; any other crossing carries None.
        events: dict[int, list[tuple[int, Fraction, int, Optional[tuple[int, bool]]]]] = {}
        r = 0
        for e, (d, px, py, qx, qy) in enumerate(edges):
            a, b, xa, xb = (py, qy, px, qx) if axis else (px, qx, py, qy)
            cell, step, num, count, span = _axis_walk(a, b, d, n)
            if not step:
                if a * n % d == 0 and 0 < a * n // d < n:
                    raise DegeneratePosition(
                        f"edge at t={Fraction(e, nv)} lies on the line "
                        f"{'xy'[axis]}={vs[e][axis]}"
                    )
                continue
            j = cell + 1 if step > 0 else cell  # the first line crossed
            for _ in range(count):
                w = 1 - j % 2
                entry = None
                if (w == 0) == (step > 0):
                    x, rem = divmod(n * xa * span + (xb - xa) * num, d * span)
                    entry = (x, rem == 0)
                events.setdefault((j + 1) // 2, []).append(
                    (r, Fraction(e * n * span + num, nv * n * span), w, entry)
                )
                j += step
                num += d
                r += 1
        out: list[Optional[CrossingInterval]] = [None] * r
        for m, evs in events.items():
            last = len(evs) - 1
            for k, (r0, t0, w0, entry) in enumerate(evs):
                if entry is None:
                    continue
                _, t1, w1, _ = evs[k + 1] if k < last else evs[0]
                home = _corridor_at(seq, orientation, i, m, *entry)
                if home is None:
                    raise AssertionError(
                        f"entry point of the crossing at t={t0} outside every corridor extent"
                    )
                out[r0] = CrossingInterval(
                    start=t0,
                    end=t1 if k < last else t1 + 1,
                    corridor=home,
                    sign=1 if w0 == 0 else -1,
                    full=w1 != w0,
                )
        walks.append(tuple(c for c in out if c is not None))
    return walks[0], walks[1]


def _relation(cs: Iterable[Corridor]) -> frozenset[frozenset]:
    """Unordered pairs among the given same-level corridors whose inner regions meet.

    Only an H and a V corridor can intersect; the strips of a single
    orientation are disjoint.  All comparisons run in scale-i integer
    units.  V corridors are bucketed by stratum with their extents in
    order; each H corridor bisects for the strata inside its x-range, and
    in each of those for the one corridor that can hold its row, so the
    cost is O(L log L + pairs) for L corridors.
    """
    hs = []
    by_stratum: dict[int, list[tuple[int, int, CorridorId]]] = {}
    for c in cs:
        e0, e1 = c.extent_units()
        if c.orientation == "H":
            hs.append((2 * c.stratum - 1, e0, e1, c.id))
        else:
            by_stratum.setdefault(c.stratum, []).append((e0, e1, c.id))
    for vs in by_stratum.values():
        vs.sort()
    strata = sorted(by_stratum)
    pairs = set()
    for row, he0, he1, hid in hs:
        # V strata k with 2k-1 < he1 and he0 < 2k; in each, the V corridor
        # with ve0 <= row < ve1.  Extents start even and rows are odd, so
        # no ve0 equals row and (row,) splits the stratum there.
        for k in strata[bisect_right(strata, he0 // 2) : bisect_right(strata, he1 // 2)]:
            vs = by_stratum[k]
            j = bisect_right(vs, (row,))
            if j and vs[j - 1][1] > row:
                pairs.add(frozenset((hid, vs[j - 1][2])))
    return frozenset(pairs)


@per_space
def crossing_relation(seq: DefiningSequence, i: int) -> frozenset[frozenset]:
    """Unordered pairs of level-i corridors whose inner regions meet.

    This is the whole level's relation, kept in the space's memo;
    encode_word never builds it, and relates only the corridors its word
    crosses.
    """
    seq.check_level(i)
    return _relation(corridors(seq, i))


def encode_word(loop: PolyLoop, seq: DefiningSequence, i: int) -> CyclicWord:
    """Read off the level-i cyclic word of a validated loop.

    Letters are ordered by interval start; two letters can share a start
    only across orientations (a corner-adjacent crossing), where the
    relation makes them commute and the H letter is written first.  Only
    the crossed strips are built, and the relation is built among the
    word's distinct corridors.
    """
    ih, iv = crossing_intervals(loop, seq, i)
    letters = [Letter(c.corridor, c.sign, c) for c in ih + iv if c.full]
    # Corridors order by orientation ("H" < "V"), then stratum and extent.
    letters.sort(key=lambda l: (l.interval.start, l.corridor))
    relation = _relation({l.corridor for l in letters})
    return CyclicWord(level=i, letters=tuple(letters), commutes=relation)


@dataclass(frozen=True)
class RefinementCorrespondence:
    """How the letters of one level split into letters one level down.

    ends[j] = (first, last): indices into fine_word of the sub-letters
    that share the parent letter j's start and end parameters.  Fine
    letters outside every parent are free.
    """

    coarse_word: CyclicWord
    fine_word: CyclicWord
    ends: tuple[tuple[int, int], ...]


def _substrata(m: int) -> tuple[int, int]:
    # Level-(i+1) strata refining level-i stratum m, lower then upper.
    return (3 * m - 1, 3 * m)


def refinement_map(coarse: CyclicWord, fine: CyclicWord) -> RefinementCorrespondence:
    """Match each level-i letter with its boundary sub-letters at level i+1.

    Both words are encode_word results for the same loop at consecutive
    levels.  A full level-i crossing starts with a full crossing of the
    entry-side substratum at the same parameter and ends with one of the
    exit-side substratum at the same parameter; every check failure
    raises RefinementViolation with the offending letter.  Fine letters
    are indexed by their start and end parameters and parents grouped by
    strip, so the cost is linear in the letters but for the parents that
    share one strip.
    """
    if fine.level != coarse.level + 1:
        raise ValueError(
            f"word levels {coarse.level} and {fine.level} are not consecutive"
        )
    # The first fine letter of each (orientation, stratum, sign) at each
    # start, and at each end parameter reduced mod 1.
    by_start: dict[tuple, int] = {}
    by_end: dict[tuple, int] = {}
    for k, fl in enumerate(fine.letters):
        key = (fl.corridor.orientation, fl.corridor.stratum, fl.sign)
        by_start.setdefault((*key, fl.interval.start), k)
        by_end.setdefault((*key, _mod1(fl.interval.end)), k)
    ends = []
    for j, parent in enumerate(coarse.letters):
        o, m, sign = parent.corridor.orientation, parent.corridor.stratum, parent.sign
        lo_sub, hi_sub = _substrata(m)
        first_sub = lo_sub if sign > 0 else hi_sub
        last_sub = hi_sub if sign > 0 else lo_sub
        first = by_start.get((o, first_sub, sign, parent.interval.start))
        last = by_end.get((o, last_sub, sign, _mod1(parent.interval.end)))
        if first is None or last is None:
            raise RefinementViolation(
                f"letter {j} ({parent.text}) lacks a "
                f"{'first' if first is None else 'last'} sub-letter"
            )
        _check_sub_extent(parent, fine.letters[first], j)
        _check_sub_extent(parent, fine.letters[last], j)
        ends.append((first, last))
    # No stranded sub-letters: a fine letter of a refining substratum
    # whose interval meets a parent's open interval must be that
    # parent's first or last.  Fine stratum s refines stratum (s+1)//3
    # unless s = 1 mod 3.
    parents: dict[tuple[str, int], list[int]] = {}
    for j, parent in enumerate(coarse.letters):
        parents.setdefault((parent.corridor.orientation, parent.corridor.stratum), []).append(j)
    taken = {f for f, _ in ends} | {l for _, l in ends}
    for k, fl in enumerate(fine.letters):
        s = fl.corridor.stratum
        if k in taken or s % 3 == 1:
            continue
        for j in parents.get((fl.corridor.orientation, (s + 1) // 3), ()):
            parent = coarse.letters[j]
            if _open_intervals_meet(fl.interval, parent.interval):
                raise RefinementViolation(
                    f"fine letter {k} ({fl.text}) sits strictly inside "
                    f"parent letter {j} ({parent.text})"
                )
    return RefinementCorrespondence(coarse, fine, tuple(ends))


def _check_sub_extent(parent: Letter, sub: Letter, j: int) -> None:
    pe, se = parent.corridor.extent, sub.corridor.extent
    if not (pe[0] <= se[0] and se[1] <= pe[1]):
        raise RefinementViolation(
            f"sub-letter {sub.text} extends outside parent {j} ({parent.text})"
        )


def _open_intervals_meet(a: CrossingInterval, b: CrossingInterval) -> bool:
    # Compare on the circle by unrolling both around b's start.
    a0, a1 = a.start, a.end
    b0, b1 = b.start, b.end
    for shift in (-1, 0, 1):
        s0, s1 = a0 + shift, a1 + shift
        if s0 < b1 and b0 < s1:
            return True
    return False


# ---------------------------------------------------------------------------
# Realization: route an abstract word back into the space.


def _dyadic(slot: int) -> Fraction:
    """slot-th member of 1/2, 1/4, 3/4, 1/8, 3/8, 5/8, 7/8, 1/16, ...

    Odd numerators over growing powers of two: distinct, dense, and never
    on a ternary grid line once added to an integer.
    """
    if slot == 0:
        return Fraction(1, 2)
    k, base = slot - 1, 4
    while k >= base // 2:
        k -= base // 2
        base *= 2
    return Fraction(2 * k + 1, base)


class _SlotCounter:
    def __init__(self):
        self.used: dict = {}

    def next(self, key) -> Fraction:
        n = self.used.get(key, 0)
        self.used[key] = n + 1
        return _dyadic(n)


def realize_word(
    word: CyclicWord,
    seq: DefiningSequence,
    basepoint_cell: tuple[int, int] | None = None,
) -> PolyLoop:
    """Build a loop whose level-(word.level) encoding is the given word.

    Routing runs every crossing along an even lane adjacent to the strip,
    with in-cell connectors between consecutive letters.  Consecutive
    letters must be joinable inside a single kept cell; otherwise the
    canonical scheme gives up with Unroutable.  The empty word becomes a
    small triangle inside the basepoint cell.
    """
    i = word.level
    seq.check_level(i)
    n = _pow3(i)
    depth = seq.depth
    scale = _pow3(depth)
    blow = _pow3(depth - i)

    if len(word) == 0:
        a, b = basepoint_cell if basepoint_cell is not None else (0, 0)
        if not seq.cell_in_space(a, b, i):
            raise Unroutable(f"basepoint cell {(a, b)} not in the level-{i} space")
        # Descend to a depth-scale sub-cell whose deeper ternary prefixes
        # are all even, so the triangle is clear of holes at every level.
        if depth > i:
            ax = (3 * a + (a & 1)) * _pow3(depth - i - 1)
            by = (3 * b + (b & 1)) * _pow3(depth - i - 1)
        else:
            ax, by = a, b
        pt = lambda dx, dy: (Fraction(ax * 4 + dx, 4 * scale), Fraction(by * 4 + dy, 4 * scale))
        return PolyLoop((pt(1, 1), pt(3, 1), pt(1, 3)))

    letters = list(word.letters)
    for l in letters:
        if l.corridor.level != i:
            raise ValueError(f"letter {l.text} not at word level {i}")

    # One lane variable per letter: the even coordinate of the crossing
    # lane (a column for H letters, a row for V letters).  Junction cells
    # tie consecutive variables together or pin them to constants.
    nL = len(letters)
    parent = list(range(nL))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int, pair):
        rx, ry = find(x), find(y)
        if rx == ry:
            return
        if fixed.get(rx) is not None and fixed.get(ry) is not None:
            if fixed[rx] != fixed[ry]:
                raise Unroutable(
                    f"letters {pair} demand different lanes", pair=pair
                )
        parent[ry] = rx
        if fixed.get(ry) is not None:
            fixed[rx] = fixed[ry]

    def pin(x: int, v: int, pair):
        r = find(x)
        old = fixed.get(r)
        if old is not None and old != v:
            raise Unroutable(f"letters {pair} pin lane both to {old} and {v}", pair=pair)
        fixed[r] = v

    fixed: dict[int, int] = {}
    strat = [l.corridor.stratum for l in letters]
    orient = [l.corridor.orientation for l in letters]
    sign = [l.sign for l in letters]

    for j in range(nL):
        k = (j + 1) % nL
        pair = (j, k)
        rj = 2 * strat[j] - 1
        rk = 2 * strat[k] - 1
        if orient[j] == orient[k]:
            if rj + sign[j] != rk - sign[k]:
                raise Unroutable(
                    f"consecutive {orient[j]} letters {pair} exit/enter "
                    "different lanes", pair=pair
                )
            union(j, k, pair)
        elif orient[j] == "H":
            pin(j, rk - sign[k], pair)
            pin(k, rj + sign[j], pair)
        else:
            pin(k, rj + sign[j], pair)
            pin(j, rk - sign[k], pair)

    # Uniform-orientation words have one unpinned class: pick the
    # middle-most even lane lying in every extent, smaller on ties.
    lane = [0] * nL
    roots: dict[int, list[int]] = {}
    for j in range(nL):
        roots.setdefault(find(j), []).append(j)
    for r, members in roots.items():
        v = fixed.get(r)
        if v is None:
            cands = None
            for j in members:
                e0, e1 = letters[j].corridor.extent_units()
                mine = set(range(e0, e1, 2))
                cands = mine if cands is None else (cands & mine)
            if not cands:
                raise Unroutable(
                    f"letters {tuple(members)} share no even lane", pair=None
                )
            ordered = sorted(cands)
            v = ordered[(len(ordered) - 1) // 2]
        for j in members:
            lane[j] = v

    for j in range(nL):
        e0, e1 = letters[j].corridor.extent_units()
        if not (e0 <= lane[j] < e1):
            raise Unroutable(
                f"lane {lane[j]} for letter {j} ({letters[j].text}) "
                f"misses extent [{e0},{e1})", pair=(j, (j + 1) % nL)
            )
        if lane[j] % 2 != 0:
            raise Unroutable(f"letter {j} forced onto odd lane {lane[j]}", pair=(j, (j + 1) % nL))

    # Junction cell of (j, j+1) and a sanity check that every cell the
    # route touches is kept.
    def cells_of(j: int) -> tuple[tuple[int, int], tuple[int, int]]:
        r = 2 * strat[j] - 1
        if orient[j] == "H":
            return ((lane[j], r - sign[j]), (lane[j], r + sign[j]))
        return ((r - sign[j], lane[j]), (r + sign[j], lane[j]))

    for j in range(nL):
        for cell in cells_of(j):
            if not seq.cell_in_space(cell[0], cell[1], i):
                raise Unroutable(
                    f"letter {j} ({letters[j].text}) needs removed cell {cell}",
                    pair=(j, (j + 1) % nL),
                )
        exit_cell = cells_of(j)[1]
        start_next = cells_of((j + 1) % nL)[0]
        if exit_cell != start_next:
            raise Unroutable(
                f"letters {(j, (j + 1) % nL)} do not meet in one cell",
                pair=(j, (j + 1) % nL),
            )

    # Transverse positions: one safe sub-lane coordinate per letter, then
    # one per same-orientation junction, drawn from per-lane counters so
    # no two segments share a line.
    slots = _SlotCounter()

    def safe(axis: str, unit_i: int) -> Fraction:
        base = unit_i * blow
        return (base + slots.next((axis, base))) / scale

    tau = [
        safe("x" if orient[j] == "H" else "y", lane[j]) for j in range(nL)
    ]
    conn: dict[int, Fraction] = {}
    for j in range(nL):
        k = (j + 1) % nL
        if orient[j] == orient[k]:
            cell = cells_of(j)[1]
            if orient[j] == "H":
                conn[j] = safe("y", cell[1])
            else:
                conn[j] = safe("x", cell[0])

    # Walk the letters, emitting the crossing segment endpoints; equal
    # consecutive points collapse (cross-orientation junctions).
    def junction_point(j: int) -> Point:
        k = (j + 1) % nL
        if orient[j] == orient[k]:
            if orient[j] == "H":
                return (tau[j], conn[j])
            return (conn[j], tau[j])
        if orient[j] == "H":
            return (tau[j], tau[k])
        return (tau[k], tau[j])

    def junction_point_after(j: int) -> Point:
        # Where letter j+1's crossing segment begins.
        k = (j + 1) % nL
        if orient[j] == orient[k]:
            if orient[k] == "H":
                return (tau[k], conn[j])
            return (conn[j], tau[k])
        return junction_point(j)

    vertices: list[Point] = []
    for j in range(nL):
        a = junction_point_after((j - 1) % nL)
        b = junction_point(j)
        for p in (a, b):
            if not vertices or vertices[-1] != p:
                vertices.append(p)
    if len(vertices) > 1 and vertices[0] == vertices[-1]:
        vertices.pop()
    return PolyLoop(tuple(vertices))
