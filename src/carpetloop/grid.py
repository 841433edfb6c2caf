"""Square grids, carpet-like complements, corridors, and loop validation.

Coordinates are exact rationals.  A space is the unit square
minus the open interiors of a chosen family of grid squares; at level i
the candidate squares have side 1/3^i and odd/even corner coordinates in
scale-i units, so the complement decomposes into cells, strips, and the
corridor pieces the word calculus is built on.

The level-s candidate (k, m) is the scale-s cell (2k-1, 2m-1).  Each
space indexes its removed squares once, by key and by line; whether a
cell or point is kept, which square covers it and which squares cut a
strip are read from that index along the cell's ancestors, one per scale.
Each strip's corridors are built when the strip is first asked for, so
reading a loop's words builds only the strips it crosses; the whole
level's corridors are the concatenation of its strips.

The edge walks run in integers: an edge's four coordinates are put over
one positive common denominator, the scale-n line j of an axis is crossed
at parameter (j*D - n*p)/(n*(q - p)), and the crossings of the two axes
merge by cross-multiplication, so validating a loop builds no rational
per cell or crossing.

Every table derived from a space (the hole index, each strip, and in
other modules each level's punctures, the whole-level relation and the
space's hash) is built by a function decorated with `per_space`, which
keeps it in the space's own `_derived` memo: built on first use, found
by identity, and freed with the space.  Equality and hashing of a space
leave the memo out.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, wraps
from math import lcm
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from .errors import LevelOutOfRange

Point = tuple[Fraction, Fraction]
T = TypeVar("T")

FULL_CARPET = "full_carpet"
EXPLICIT = "explicit"


def _pow3(i: int) -> int:
    return 3 ** i


@dataclass(frozen=True, order=True)
class GridSquare:
    """The candidate square [(2k-1)/3^i, 2k/3^i] x [(2m-1)/3^i, 2m/3^i]."""

    level: int
    k: int
    m: int

    def __post_init__(self):
        n = _pow3(self.level)
        if self.level < 1:
            raise ValueError(f"square level must be >= 1, got {self.level}")
        if not (1 <= self.k and 2 * self.k <= n and 1 <= self.m and 2 * self.m <= n):
            raise ValueError(f"square indices out of range: {self}")

    @property
    def x_interval(self) -> tuple[Fraction, Fraction]:
        n = _pow3(self.level)
        return (Fraction(2 * self.k - 1, n), Fraction(2 * self.k, n))

    @property
    def y_interval(self) -> tuple[Fraction, Fraction]:
        n = _pow3(self.level)
        return (Fraction(2 * self.m - 1, n), Fraction(2 * self.m, n))

    @property
    def center(self) -> Point:
        n = _pow3(self.level)
        return (Fraction(4 * self.k - 1, 2 * n), Fraction(4 * self.m - 1, 2 * n))

    def key(self) -> tuple[int, int, int]:
        return (self.level, self.k, self.m)


def _shallowest_candidate(a: int, b: int, i: int) -> Optional[tuple[int, int, int]]:
    """Key of the shallowest candidate of level <= i holding scale-i cell (a, b).

    The level-s candidate (k, m) is the scale-s cell (2k-1, 2m-1), so it
    holds the cell iff the cell's scale-s ancestor has two odd digits.
    Every deeper candidate holding the cell lies inside this one, so it
    is not eligible and no space removes it.
    """
    t = _pow3(i)
    for s in range(1, i + 1):
        t //= 3
        x, y = a // t, b // t
        if x & y & 1:
            return (s, (x + 1) // 2, (y + 1) // 2)
    return None


@lru_cache(maxsize=None)
def _eligible_at(i: int) -> frozenset[GridSquare]:
    """Candidates at level i not contained in any earlier candidate.

    A candidate is buried iff a proper ancestor has two odd digits, so
    eligibility is a property of the grid alone, not of the space.
    """
    half = (_pow3(i) - 1) // 2
    return frozenset(
        GridSquare(i, k, m)
        for k in range(1, half + 1)
        for m in range(1, half + 1)
        if _shallowest_candidate(2 * k - 1, 2 * m - 1, i)[0] == i
    )


def per_space(build: Callable[..., T]) -> Callable[..., T]:
    """Memoize build(seq, *args) in the space's own memo.

    The value is kept in seq._derived under (build, *args), so it is
    built on first use, found by identity (an equal but distinct space
    builds its own) and freed with the space.
    """

    @wraps(build)
    def derived(seq: DefiningSequence, *args) -> T:
        key = (build, *args)
        try:
            return seq._derived[key]
        except KeyError:
            pass
        value = seq._derived[key] = build(seq, *args)
        return value

    return derived


@dataclass(frozen=True)
class _HoleIndex:
    """One space's removed squares by key, by level and by line.

    lines[(orientation, level, stratum)] holds the ascending extent index
    of each square on that line: k on an "H" line, m on a "V" line.
    """

    squares: dict[tuple[int, int, int], GridSquare]
    by_level: tuple[tuple[GridSquare, ...], ...]  # level s at s-1, in key order
    lines: dict[tuple[str, int, int], list[int]]


@per_space
def _hole_index(seq: DefiningSequence) -> _HoleIndex:
    squares = sorted(seq.removed, key=GridSquare.key)
    lines: dict[tuple[str, int, int], list[int]] = {}
    for sq in squares:
        lines.setdefault(("H", sq.level, sq.m), []).append(sq.k)
        lines.setdefault(("V", sq.level, sq.k), []).append(sq.m)
    return _HoleIndex(
        {sq.key(): sq for sq in squares},
        tuple(
            tuple(sq for sq in squares if sq.level == s)
            for s in range(1, seq.depth + 1)
        ),
        lines,
    )


@dataclass(frozen=True)
class DefiningSequence:
    """A depth-limited choice of removed squares, one batch per level.

    Lookups read `_hole_index` alike for every pattern; the pattern only
    names the space's JSON form.  Tables derived from the space live in
    `_derived`, filled by `per_space` functions; it is left out of
    equality, hashing and repr, so two equal spaces compare equal
    whatever each has built.
    """

    depth: int
    pattern: str
    removed: frozenset[GridSquare]
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def explicit(depth: int, removed: Iterable[GridSquare | tuple[int, int, int]]) -> "DefiningSequence":
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        squares = frozenset(
            sq if isinstance(sq, GridSquare) else GridSquare(*sq) for sq in removed
        )
        for sq in squares:
            if sq.level > depth:
                raise ValueError(f"{sq} exceeds depth {depth}")
            if _shallowest_candidate(2 * sq.k - 1, 2 * sq.m - 1, sq.level)[0] != sq.level:
                raise ValueError(f"{sq} is not eligible at its level")
        return DefiningSequence(depth, EXPLICIT, squares)

    @staticmethod
    def full_carpet(depth: int) -> "DefiningSequence":
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        squares = frozenset(
            sq for i in range(1, depth + 1) for sq in _eligible_at(i)
        )
        return DefiningSequence(depth, FULL_CARPET, squares)

    def holes_at_level(self, i: int) -> tuple[GridSquare, ...]:
        """The removed squares of level i, in key order."""
        return _hole_index(self).by_level[i - 1] if 1 <= i <= self.depth else ()

    def holes_up_to(self, i: int) -> tuple[GridSquare, ...]:
        """The removed squares of level <= i, in key order."""
        return tuple(sq for sqs in _hole_index(self).by_level[:i] for sq in sqs)

    def has_hole(self, s: int, k: int, m: int) -> bool:
        """Is the level-s candidate (k, m) removed?"""
        return (s, k, m) in _hole_index(self).squares

    def check_level(self, i: int) -> None:
        if not (1 <= i <= self.depth):
            raise LevelOutOfRange(f"level {i} outside 1..{self.depth}")

    def point_in_removed_interior(self, p: Point, i: int) -> bool:
        """Is p strictly inside some removed square of level <= i?

        p is strictly inside the level-s candidate (k, m) iff both scaled
        coordinates are non-integral with integer parts 2k-1 and 2m-1.
        As for cells, only the shallowest such candidate can be removed.
        """
        (xn, xd), (yn, yd) = p[0].as_integer_ratio(), p[1].as_integer_ratio()
        for s in range(1, i + 1):
            n = _pow3(s)
            fx, rx = divmod(xn * n, xd)
            fy, ry = divmod(yn * n, yd)
            if rx and ry and fx & fy & 1:
                return self.has_hole(s, (fx + 1) // 2, (fy + 1) // 2)
        return False

    def covering_hole(self, a: int, b: int, i: int) -> Optional[GridSquare]:
        """The removed square of level <= i covering scale-i cell (a, b), if any."""
        return _hole_index(self).squares.get(_shallowest_candidate(a, b, i))

    def cell_in_space(self, a: int, b: int, i: int) -> bool:
        """Is the scale-i cell [a/3^i,(a+1)/3^i] x [b/3^i,(b+1)/3^i] kept?"""
        n = _pow3(i)
        return 0 <= a < n and 0 <= b < n and self.covering_hole(a, b, i) is None


def eligible_squares(seq: DefiningSequence, i: int) -> frozenset[GridSquare]:
    seq.check_level(i)
    return _eligible_at(i)


@dataclass(frozen=True, order=True)
class Corridor:
    """One closed component of the level-i strip complement.

    orientation "H": the strip is ((2m-1)/3^i, 2m/3^i) in y, the extent
    is an x-interval.  orientation "V" swaps the roles.  Extents always
    run from an even to an odd scale-i coordinate.
    """

    orientation: str
    level: int
    stratum: int
    extent: tuple[Fraction, Fraction]

    @property
    def transverse(self) -> tuple[Fraction, Fraction]:
        n = _pow3(self.level)
        return (Fraction(2 * self.stratum - 1, n), Fraction(2 * self.stratum, n))

    @property
    def rect(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Closed bounding box (x0, x1, y0, y1)."""
        if self.orientation == "H":
            return (self.extent[0], self.extent[1], *self.transverse)
        return (*self.transverse, self.extent[0], self.extent[1])

    def extent_units(self) -> tuple[int, int]:
        n = _pow3(self.level)
        (a, b), (c, d) = self.extent[0].as_integer_ratio(), self.extent[1].as_integer_ratio()
        assert n % b == 0 and n % d == 0
        return (a * (n // b), c * (n // d))

    @property
    def id(self) -> tuple[str, int, int, Fraction]:
        return (self.orientation, self.level, self.stratum, self.extent[0])

    @property
    def id_text(self) -> str:
        e0 = self.extent[0]
        return f"{self.orientation}:{self.level}:{self.stratum}:{e0.numerator}/{e0.denominator}"


@per_space
def _strip_extents(seq: DefiningSequence, orientation: str, i: int, m: int) -> tuple[list[int], list[int]]:
    """The corridor extents of level-i strip m of one orientation, in scale-i units.

    Returns the starts and the ends, in extent order.  Every start is
    even and every end odd, and each block between two corridors is at
    least one unit wide, so the closed extents are pairwise disjoint.
    """
    lines = _hole_index(seq).lines
    n = _pow3(i)
    # Blocks: removed squares whose transverse side covers the whole
    # strip, i.e. the squares on the line of each odd scale-s ancestor r
    # of the strip's row.  Any other removed square misses the strip's
    # interior, so these are the only cuts.
    blocks: list[tuple[int, int]] = []
    for s in range(1, i + 1):
        t = _pow3(i - s)
        r = (2 * m - 1) // t
        if r & 1:
            for e in lines.get((orientation, s, (r + 1) // 2), ()):
                blocks.append(((2 * e - 1) * t, 2 * e * t))
    blocks.sort()
    # The corridors are the gaps between blocks, up to the sentinel at n,
    # in extent order.
    starts: list[int] = []
    ends: list[int] = []
    lo = 0
    for b0, b1 in blocks + [(n, n)]:
        if b0 > lo:
            starts.append(lo)
            ends.append(b0)
        lo = max(lo, b1)
    return starts, ends


@per_space
def _strip(seq: DefiningSequence, orientation: str, i: int, m: int) -> tuple[Corridor, ...]:
    """The corridors of level-i strip m of one orientation, in extent order."""
    n = _pow3(i)
    starts, ends = _strip_extents(seq, orientation, i, m)
    return tuple(
        Corridor(orientation, i, m, (Fraction(e0, n), Fraction(e1, n)))
        for e0, e1 in zip(starts, ends)
    )


def corridors(seq: DefiningSequence, i: int) -> tuple[Corridor, ...]:
    """Every corridor of level i, in sorted order."""
    seq.check_level(i)
    # Strips in (orientation, stratum) order, so the concatenation is in
    # the sorted order of Corridor.
    half = (_pow3(i) - 1) // 2
    return tuple(
        c for o in ("H", "V") for m in range(1, half + 1) for c in _strip(seq, o, i, m)
    )


def _corridor_at(
    seq: DefiningSequence, orientation: str, i: int, m: int, x: int, exact: bool
) -> Optional[Corridor]:
    """The corridor of level-i strip m whose closed extent holds a coordinate.

    The coordinate, in scale-i units, is x when exact and lies strictly
    between x and x + 1 otherwise.
    """
    starts, ends = _strip_extents(seq, orientation, i, m)
    j = bisect_right(starts, x)
    if j and (x < ends[j - 1] or (exact and x == ends[j - 1])):
        return _strip(seq, orientation, i, m)[j - 1]
    return None


@dataclass(frozen=True)
class PolyLoop:
    """A closed polygonal loop, parameterized uniformly over [0, 1).

    Vertex j sits at parameter j/n; edges are traversed in vertex order
    and the last vertex connects back to the first.
    """

    vertices: tuple[Point, ...]

    def __post_init__(self):
        for v in self.vertices:
            if not (0 <= v[0] <= 1 and 0 <= v[1] <= 1):
                raise ValueError(f"vertex {v} outside the unit square")

    def __len__(self) -> int:
        return len(self.vertices)

    def vertex_param(self, j: int) -> Fraction:
        return Fraction(j % len(self.vertices), len(self.vertices))

    def point_at(self, t: Fraction) -> Point:
        """The point at parameter t mod 1, each coordinate one Fraction of integers."""
        n, d = len(self.vertices), t.denominator
        j, r = divmod(t.numerator * n, d)  # tn = j + r/d: r/d along edge j
        p, q = self.vertices[j % n], self.vertices[(j + 1) % n]
        return tuple(
            Fraction((d - r) * a.numerator * b.denominator + r * b.numerator * a.denominator,
                     d * a.denominator * b.denominator)
            for a, b in zip(p, q)
        )

    def edges(self) -> Iterator[tuple[Point, Point, Fraction, Fraction]]:
        n = len(self.vertices)
        for j in range(n):
            yield (
                self.vertices[j],
                self.vertices[(j + 1) % n],
                Fraction(j, n),
                Fraction(j + 1, n),
            )

    def reversed_loop(self) -> "PolyLoop":
        vs = self.vertices
        return PolyLoop((vs[0],) + tuple(reversed(vs[1:])))


@dataclass(frozen=True)
class Violation:
    kind: str  # NotClosed | DegenerateEdge | VertexOnGridLine | EdgeInHole
    index: Optional[int] = None
    level: Optional[int] = None
    line: Optional[tuple[str, Fraction]] = None
    square: Optional[GridSquare] = None

    def describe(self) -> str:
        parts = [self.kind]
        if self.index is not None:
            parts.append(f"at index {self.index}")
        if self.line is not None:
            axis, value = self.line
            parts.append(f"on line {axis}={value} (level {self.level})")
        if self.square is not None:
            parts.append(f"in removed square {self.square.key()}")
        return " ".join(parts)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

    @property
    def first(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None


def _line_level(value: Fraction, depth: int) -> Optional[int]:
    """Smallest s <= depth with value*3^s integral, if any."""
    q = value.denominator
    s = 0
    while q % 3 == 0:
        q //= 3
        s += 1
    if q != 1:
        return None
    # value = p/3^s in lowest terms; it lies on every grid of level >= s.
    return s if s <= depth else None


def _over_common_denominator(p: Point, q: Point) -> tuple[int, int, int, int, int]:
    """(D, px, py, qx, qy): segment pq's coordinates over one positive denominator D."""
    (pxn, pxd), (pyn, pyd) = p[0].as_integer_ratio(), p[1].as_integer_ratio()
    (qxn, qxd), (qyn, qyd) = q[0].as_integer_ratio(), q[1].as_integer_ratio()
    d = lcm(pxd, pyd, qxd, qyd)
    return d, pxn * (d // pxd), pyn * (d // pyd), qxn * (d // qxd), qyn * (d // qyd)


def _axis_walk(a: int, b: int, d: int, n: int) -> tuple[int, int, int, int, int]:
    """The scale-n lines one coordinate crosses going from a/d to b/d.

    Returns (cell, step, first, count, span): the scale-n cell index at
    the start, +1 or -1 per line crossed, and the lines strictly between
    the ends as count crossings at parameters (first + k*d)/(n*span) for
    k = 0..count-1.  Line j is crossed at (j*d - n*a)/(n*(b - a)).  A
    start on a line counts in the cell the coordinate moves into, and a
    coordinate that does not move (count 0) is in the cell above or to
    the right of a line it is on.
    """
    if b > a:
        cell = a * n // d
        return cell, 1, (cell + 1) * d - n * a, -(-b * n // d) - 1 - cell, b - a
    if b < a:
        cell = -(-a * n // d) - 1
        return cell, -1, n * a - cell * d, cell - b * n // d, a - b
    return a * n // d, 0, 0, 0, 1


def _segment_cells(p: Point, q: Point, n: int) -> Iterator[tuple[int, int]]:
    """Scale-n cells of the pieces of segment pq, in order along it.

    Cuts the segment where it crosses a scale-n line; each piece lies in
    one cell (for a piece on a line, the cell above or to the right of
    it).  The crossings of the two axes are merged in integers by
    cross-multiplying their parameters, and each steps its axis's cell
    index by one; a crossing through a grid vertex steps both at once.
    """
    d, px, py, qx, qy = _over_common_denominator(p, q)
    a, sa, na, ra, da = _axis_walk(px, qx, d, n)
    b, sb, nb, rb, db = _axis_walk(py, qy, d, n)
    yield a, b
    while ra or rb:
        c = na * db - nb * da if ra and rb else (-1 if ra else 1)
        if c <= 0:
            a += sa
            na += d
            ra -= 1
        if c >= 0:
            b += sb
            nb += d
            rb -= 1
        yield a, b


def validate_loop(loop: PolyLoop, seq: DefiningSequence, depth: int) -> ValidationReport:
    """Check a loop against the space at every level up to depth.

    Reports the first violation found, in check order: closure and edge
    degeneracy, then vertex/grid-line contact, then hole avoidance.
    """
    if depth < 1 or depth > seq.depth:
        raise LevelOutOfRange(f"depth {depth} outside 1..{seq.depth}")
    vs = loop.vertices
    if len(vs) == 0:
        return ValidationReport(False, (Violation("NotClosed"),))
    if len(vs) < 3:
        return ValidationReport(False, (Violation("DegenerateEdge", index=0),))
    for j in range(len(vs)):
        if vs[j] == vs[(j + 1) % len(vs)]:
            return ValidationReport(False, (Violation("DegenerateEdge", index=j),))
    for j, v in enumerate(vs):
        for axis in (0, 1):
            s = _line_level(v[axis], depth)
            if s is not None:
                line = ("x" if axis == 0 else "y", v[axis])
                return ValidationReport(
                    False,
                    (Violation("VertexOnGridLine", index=j, level=max(s, 1), line=line),),
                )
    n = _pow3(depth)
    for j in range(len(vs)):
        p, q = vs[j], vs[(j + 1) % len(vs)]
        for a, b in _segment_cells(p, q, n):
            sq = seq.covering_hole(a, b, depth)
            if sq is not None:
                return ValidationReport(
                    False,
                    (Violation("EdgeInHole", index=j, square=sq),),
                )
    return ValidationReport(True)

