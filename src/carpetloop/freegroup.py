"""Winding words around removed squares.

Each removed square of level <= i punctures the level-i space once.  A
ray from each square's center turns signed loop/ray crossings into a
word in the free group on the holes; deleting the deepest letters is
the bonding map between levels.  The rays must be pairwise disjoint:
crossing rays leave a bounded component in their complement and loops
around it would pick up spurious commutators.

Every ray has the direction d = (3^(depth+1), -1), so each lies on a
line L(P) = dx*Py - dy*Px = key, and the key of a puncture's line is
one integer at scale 2*3^i.  L is affine, so along an edge it moves
monotonically from L(start) to L(end) and the edge meets the line of
key K at a parameter that is monotone in K.  Sorting the punctures by
key once therefore orders the crossings along every edge: the edge
reads the keys between its two end values, ascending when L rises
along it and descending when L falls.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import DegeneratePosition
from .grid import DefiningSequence, GridSquare, PolyLoop, Point, per_space

HoleKey = tuple[int, int, int]


@dataclass(frozen=True)
class Puncture:
    hole: GridSquare
    ray: tuple[int, int]

    @property
    def center(self) -> Point:
        return self.hole.center


@per_space
def _puncture_table(
    seq: DefiningSequence, i: int
) -> tuple[tuple[Puncture, ...], list[int], list[int]]:
    """Punctures, their keys in ascending order, and the index of each key's puncture.

    At scale 2*3^i the center of the level-s square (k, m) is the integer
    point (cx, cy) = ((4k-1)*3^(i-s), (4m-1)*3^(i-s)), and its key is
    dx*cy - dy*cx = dx*cy + cx.  As 0 < cx < 2*3^i < dx, the key alone
    gives the center back: (cy, cx) = divmod(key, dx).  One table per
    level is kept in the space's memo.
    """
    seq.check_level(i)
    dx, dy = ray = (3 ** (seq.depth + 1), -1)
    ps = tuple(Puncture(sq, ray) for sq in seq.holes_up_to(i))
    key = [
        (dx * (4 * p.hole.m - 1) - dy * (4 * p.hole.k - 1)) * 3 ** (i - p.hole.level)
        for p in ps
    ]
    order = sorted(range(len(ps)), key=key.__getitem__)
    return ps, [key[pi] for pi in order], order


def punctures(seq: DefiningSequence, i: int) -> tuple[Puncture, ...]:
    """Punctures of the level-i space, ordered by (level, k, m).

    All rays share the direction (3^(depth+1), -1), so they are
    parallel and never cross each other.  No ray hits another center
    either: two distinct centers at different heights differ in y by at
    least 1/(2*3^depth), which along this direction would force an x
    gap of at least 3/2, more than the square is wide; centers at equal
    height are never collinear with a strictly falling direction.
    Together the rays cut the punctured plane into one simply connected
    piece, so the crossing word below is the honest free-group image.
    The same argument makes the rays' lines distinct, so their keys
    dx*cy - dy*cx are distinct and order the crossings along any edge
    (see the module docstring).
    """
    return _puncture_table(seq, i)[0]


@dataclass(frozen=True)
class FreeWord:
    """A reduced-or-not sequence of (hole, exponent) letters."""

    letters: tuple[tuple[GridSquare, int], ...]

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return len(reduce(self).letters) == 0

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((h, -e) for h, e in reversed(self.letters)))

    def concat(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(self.letters + other.letters)

    @property
    def text(self) -> str:
        parts: list[str] = []
        j = 0
        while j < len(self.letters):
            h, e = self.letters[j]
            run = e
            j += 1
            while j < len(self.letters) and self.letters[j][0] == h and self.letters[j][1] == e:
                run += e
                j += 1
            g = f"g[{h.level},{h.k},{h.m}]"
            parts.append(g if run == 1 else f"{g}^{run}")
        return " ".join(parts)


def reduce(word: FreeWord) -> FreeWord:
    """Freely reduce: cancel adjacent letters on the same hole.

    Exponents are folded first, so g^2 g^-1 collapses the same way the
    split form does.
    """
    stack: list[list] = []
    for h, e in word.letters:
        if e == 0:
            continue
        if stack and stack[-1][0] == h:
            stack[-1][1] += e
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([h, e])
    out = []
    for h, e in stack:
        s = 1 if e > 0 else -1
        out.extend((h, s) for _ in range(abs(e)))
    return FreeWord(tuple(out))


def _ray_crossings(
    loop: PolyLoop, seq: DefiningSequence, i: int
) -> list[tuple[int, int, int]]:
    """(edge index, puncture index, sign) events, in order along the loop.

    Sign +1 means the edge crosses the ray counterclockwise around the
    puncture.  Vertices on a ray, or edges collinear with one, raise
    DegeneratePosition for the first such (puncture, edge) pair in
    puncture-major order.  Each edge only tests the punctures whose
    keys lie between its end values, in the order it meets their lines.
    """
    seq.check_level(i)
    ps, keys, order = _puncture_table(seq, i)
    dx, dy = 3 ** (seq.depth + 1), -1
    den = 2 * 3**i
    for v in loop.vertices:
        for c in v:
            den = math.lcm(den, c.denominator)
    scale = den // (2 * 3**i)
    verts = [
        (x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
        for x, y in loop.vertices
    ]
    n = len(verts)
    events = []
    degenerate = None
    for j in range(n):
        px, py = verts[j]
        qx, qy = verts[(j + 1) % n]
        lp, lq = dx * py - dy * px, dx * qy - dy * qx
        # Punctures whose line the closed edge can meet: keys in
        # [min, max] of the end values, brought back to scale 2*3^i.
        lo = bisect_left(keys, -(-min(lp, lq) // scale))
        hi = bisect_right(keys, max(lp, lq) // scale)
        for r in range(lo, hi) if lp <= lq else range(hi - 1, lo - 1, -1):
            zy, zx = divmod(keys[r], dx)
            zx, zy = zx * scale, zy * scale
            # The ray points right and down; reject edges fully left of
            # or above the center before the cross products.
            if px < zx and qx < zx:
                continue
            if py > zy and qy > zy:
                continue
            kz = keys[r] * scale
            cp, cq = lp - kz, lq - kz
            if cp == 0 or cq == 0:
                pi = order[r]
                if cp == 0 and cq == 0:
                    what = f"edge {j} is collinear with the ray of {ps[pi].hole.key()}"
                else:
                    vx, vy = (px, py) if cp == 0 else (qx, qy)
                    if dx * (vx - zx) + dy * (vy - zy) <= 0:
                        continue
                    what = f"a vertex of edge {j} lies on the ray of {ps[pi].hole.key()}"
                if degenerate is None or (pi, j) < degenerate[:2]:
                    degenerate = (pi, j, what)
                continue
            # The segment meets the full line; keep forward hits only.
            tnum = (px - zx) * (qy - py) - (py - zy) * (qx - px)
            if tnum * (cq - cp) <= 0:
                continue
            events.append((j, order[r], 1 if cq > cp else -1))
    if degenerate is not None:
        raise DegeneratePosition(degenerate[2])
    return events


def winding_vector(loop: PolyLoop, seq: DefiningSequence, i: int) -> dict[GridSquare, int]:
    """Net signed crossings per puncture: the abelianized word."""
    ps = punctures(seq, i)
    totals = {p.hole: 0 for p in ps}
    for _, pi, s in _ray_crossings(loop, seq, i):
        totals[ps[pi].hole] += s
    return totals


def puncture_word(loop: PolyLoop, seq: DefiningSequence, i: int) -> FreeWord:
    """The reduced level-i free-group image of the loop."""
    ps = punctures(seq, i)
    # Reduce over puncture indices: holes are distinct, so this is the
    # same reduction without hashing or comparing squares.
    reduced = reduce(FreeWord(tuple((pi, s) for _, pi, s in _ray_crossings(loop, seq, i))))
    return FreeWord(tuple((ps[pi].hole, s) for pi, s in reduced.letters))


def bonding_map(word: FreeWord, from_level: int) -> FreeWord:
    """Project one level down by erasing every letter of from_level."""
    kept = tuple((h, e) for h, e in word.letters if h.level != from_level)
    return reduce(FreeWord(kept))


def shape_image(loop: PolyLoop, seq: DefiningSequence, N: int) -> tuple[FreeWord, ...]:
    """Puncture words at levels 1..N, checked to form a bonding thread."""
    words = tuple(puncture_word(loop, seq, i) for i in range(1, N + 1))
    for i in range(1, N):
        projected = bonding_map(words[i], i + 1)
        if projected.letters != words[i - 1].letters:
            raise AssertionError(
                f"bonding failure between levels {i + 1} and {i}: "
                f"{projected.text!r} != {words[i - 1].text!r}"
            )
    return words
