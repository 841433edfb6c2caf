"""Winding words around removed squares.

Each removed square of level <= i punctures the level-i space once.  A
ray from each square's center turns signed loop/ray crossings into a
word in the free group on the holes; deleting the deepest letters is
the bonding map between levels.  The rays must be pairwise disjoint:
crossing rays leave a bounded component in their complement and loops
around it would pick up spurious commutators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DegeneratePosition
from .grid import DefiningSequence, GridSquare, PolyLoop, Point

HoleKey = tuple[int, int, int]


@dataclass(frozen=True)
class Puncture:
    hole: GridSquare
    center: Point
    ray: tuple[int, int]


@lru_cache(maxsize=None)
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
    """
    seq.check_level(i)
    ray = (3 ** (seq.depth + 1), -1)
    out = []
    for sq in seq.holes_up_to(i):
        out.append(Puncture(sq, sq.center, ray))
    return tuple(out)


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


def _scaled_ints(loop: PolyLoop, seq: DefiningSequence, i: int):
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


def _ray_crossings(
    loop: PolyLoop, seq: DefiningSequence, i: int
) -> list[tuple[int, Fraction, int, int]]:
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


def winding_vector(loop: PolyLoop, seq: DefiningSequence, i: int) -> dict[GridSquare, int]:
    """Net signed crossings per puncture: the abelianized word."""
    ps = punctures(seq, i)
    totals = {p.hole: 0 for p in ps}
    for _, _, pi, s in _ray_crossings(loop, seq, i):
        totals[ps[pi].hole] += s
    return totals


def puncture_word(loop: PolyLoop, seq: DefiningSequence, i: int) -> FreeWord:
    """The reduced level-i free-group image of the loop."""
    ps = punctures(seq, i)
    letters = tuple(
        (ps[pi].hole, s) for _, _, pi, s in _ray_crossings(loop, seq, i)
    )
    return reduce(FreeWord(letters))


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
